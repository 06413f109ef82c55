"""Self-test of the benchmark on its miniature sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that
  * ``run.py`` prints every metric named in BENCHMARK.json, with its unit,
    for every workload, with tracing off and on, and passes its checks;
  * the traced wrappers are all restored after a traced sweep;
  * an injected accounting mismatch and an injected out-of-tolerance
    result are counted as failed operations;
  * ``run.py`` fails, without a result, where there is no source tree.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import worker  # puts the checkout's src on sys.path first

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from invlap import core, harness  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace), "--mini"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_names() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for spec in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(spec["name"], trace)
            where = f"{spec['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
                problems.append(f"{where}: checks failed: {proc.stderr[-2000:]}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != BENCHMARK.json {want}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric.get("value"), (int, float)):
                    problems.append(f"{where}: {name} has no numeric value")
    return problems


def sweep_failures(workload: str) -> list:
    inputs = workloads.make_inputs(workload, 0, mini=True)
    rows = workloads.run_sweep(inputs)
    _, failures, _ = checks.check_rows(rows, worker.load_expected(workload, inputs.variant, True))
    return failures


def check_wrappers_restored() -> list:
    problems = []
    for workload in ("bem-shared", "pairs-dense"):
        inputs = workloads.make_inputs(workload, 0, mini=True)
        before = {(m, a): getattr(sys.modules[m], a)
                  for m, a, _ in tracing.TARGETS[workloads.WORKLOADS[workload].kind]}
        try:
            _, _, layers = worker.run_once(inputs, traced=True)
        except RuntimeError as exc:
            problems.append(f"{workload}: {exc}")
            continue
        after = {(m, a): getattr(sys.modules[m], a) for m, a in before}
        if any(after[k] is not before[k] for k in before):
            problems.append(f"{workload}: wrappers left installed")
        if layers["missing"]:
            problems.append(f"{workload}: wrapped names missing: {layers['missing']}")
    return problems


def check_injected_failures() -> list:
    problems = []
    original_call = core.CountingImage.__call__

    def double_count(self, p):
        original_call(self, p)
        return original_call(self, p)

    core.CountingImage.__call__ = double_count
    try:
        for workload in ("bem-per-time", "pairs-dense"):
            failures = sweep_failures(workload)
            if not failures or not all("accounting" in reason for _, reason in failures):
                problems.append(f"{workload}: accounting mismatch not counted: {failures[:3]}")
    finally:
        core.CountingImage.__call__ = original_call

    original_invert = core.invert_all

    def off_by_ten_percent(*args, **kwargs):
        result = original_invert(*args, **kwargs)
        result.values = result.values * 1.1
        return result

    core.invert_all = harness.invert_all = off_by_ten_percent
    try:
        for workload in ("bem-per-time", "pairs-dense"):
            failures = sweep_failures(workload)
            if not any("exceeds tolerance" in reason for _, reason in failures):
                problems.append(f"{workload}: out-of-tolerance result not counted")
    finally:
        core.invert_all = harness.invert_all = original_invert
    for workload in ("bem-per-time", "pairs-dense"):
        failures = sweep_failures(workload)
        if failures:
            problems.append(f"{workload}: unpatched sweep fails: {failures[:3]}")
    return problems


def check_fails_without_source() -> list:
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark("pairs-dense", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py without a source tree: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    problems = []
    for check in (check_wrappers_restored, check_injected_failures,
                  check_fails_without_source, check_metric_names):
        found = check()
        problems += found
        print(f"{'FAIL' if found else 'ok  '} {check.__name__}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
