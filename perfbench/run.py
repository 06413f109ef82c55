"""invlap benchmark: time seeded sweeps through the package's public entry points.

    python3 perfbench/run.py --workload bem-shared --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the workloads are described in
``workloads.py``.  Each sweep runs in a fresh process (``worker.py``) with
no warm-up, so first-call costs are paid as a user pays them.  Sweeps
follow one another until the next one would end after ``--seconds``; at
least one always runs.  Set-up (interpreter start, ``import invlap``, mesh
build, seeded input generation) is measured in every process, plus extra
set-up-only processes until there are SETUP_SAMPLES of them.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` plain and traced sweeps alternate and the
result holds the per-layer metrics of the traced sweeps plus
``trace.overhead``, the traced over the plain median wall time minus 1;
spans are written under ``.perfbench/``.  A per-layer metric the workload
never reaches is reported as -1 (unobserved) and listed on stderr.

The last line of stdout is the JSON result; the line before it records
the provenance of the run.  Operations that raise, break the evaluation
accounting or fail the output checks (``checks.py``) count in ``failed``.
``--mini`` runs the miniature sizes used by ``selftest.py``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
#: Every process must end within this many seconds of the run's start.
RUN_LIMIT_S = 170.0
OUT_DIR = ".perfbench"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "image_calls": "count", "err_ratio": "ratio"}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_version() -> str:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


class Runner:
    def __init__(self, args, root, eval_workers):
        self.args = args
        self.root = root
        self.start = time.monotonic()
        # evaluation threads x BLAS threads <= nproc; the program's own
        # defaults are left alone
        blas_threads = max(1, nproc() // eval_workers)
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)
        self.provenance = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "mini": args.mini, "git_sha": git_sha(root),
            "nproc": nproc(), "eval_workers": eval_workers, "blas_threads": blas_threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas_version(),
            "loadavg_at_start": os.getloadavg(),
        }

    def worker(self, mode: str, index: int) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--mode", mode]
        if self.args.mini:
            cmd.append("--mini")
        if mode == "traced":
            cmd += ["--spans", os.path.join(
                OUT_DIR, f"spans-{self.args.workload}-seed{self.args.seed}-{index}.json")]
        limit = RUN_LIMIT_S - (time.monotonic() - self.start)
        if limit <= 0:
            raise BenchmarkError("no time left to start another process")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=limit)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{mode} process exceeded {limit:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"{mode} process exited with {proc.returncode}:\n"
                                 f"{proc.stderr[-4000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["mode"] = mode
        record["setup_s"] = record["t_ready"] - started
        record["process_s"] = time.monotonic() - started
        return record

    def run(self) -> list:
        records = [self.worker("setup", 0)]
        modes = ("plain", "traced") if self.args.trace else ("plain",)
        sweeps = []
        while True:
            mode = modes[len(sweeps) % len(modes)]
            sweeps.append(self.worker(mode, len(sweeps)))
            elapsed = time.monotonic() - self.start
            per_sweep = statistics.mean(r["process_s"] for r in sweeps)
            if len(sweeps) >= len(modes) and elapsed + per_sweep > self.args.seconds:
                break
        while len(records) + len(sweeps) < SETUP_SAMPLES:
            records.append(self.worker("setup", 0))
        return records + sweeps


def end_to_end(records, plain) -> dict:
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "image_calls": plain[0]["image_calls"],
        "err_ratio": plain[0]["err_ratio"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(plain, traced) -> tuple:
    layers = tracing.median_metrics([r["layers"] for r in traced])
    layers["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                                / statistics.median(r["wall_s"] for r in plain) - 1.0)
    unobserved = sorted(k for k, v in layers.items() if v is None)
    metrics = {k: {"value": tracing.UNOBSERVED if v is None else v,
                   "unit": tracing.LAYER_METRICS[k][0]} for k, v in layers.items()}
    missing = sorted({m for r in traced for m in r["layers"]["missing"]})
    return metrics, unobserved, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mini", action="store_true", help="miniature sizes (self-test)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "invlap", "__init__.py")):
        print("run.py: no invlap source tree (src/invlap) under the current directory; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads  # imports invlap, so only once the source tree is known
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    runner = Runner(args, root, workloads.WORKERS)
    try:
        records = runner.run()
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    sweeps = [r for r in records if r["mode"] != "setup"]
    plain = [r for r in sweeps if r["mode"] == "plain"]
    traced = [r for r in sweeps if r["mode"] == "traced"]
    attempted = sum(r["attempted"] for r in sweeps)
    failed = sum(r["failed"] for r in sweeps)
    consistent = len({r["image_calls"] for r in sweeps}) == 1
    for r in sweeps:
        for key, reason in r["failures"]:
            print(f"FAILED {r['mode']} {key}: {reason}", file=sys.stderr)
    if not consistent:
        print("image calls differ between sweeps: "
              f"{[r['image_calls'] for r in sweeps]}", file=sys.stderr)

    if args.trace:
        metrics, unobserved, missing = per_layer(plain, traced)
        if unobserved:
            print(f"unobserved (reported as {metrics[unobserved[0]]['value']}): "
                  f"{', '.join(unobserved)}", file=sys.stderr)
        if missing:
            print(f"wrapped names missing from invlap: {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = end_to_end(records, plain)

    result = {"correct": failed == 0 and consistent, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    log = {"provenance": runner.provenance, "records": records, "result": result}
    path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(log, fh, indent=1)
    print(json.dumps({"provenance": runner.provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
