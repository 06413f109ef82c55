#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark, or of experiments, in two checkouts.

With ``--workload``, runs ``perfbench/run.py`` in PARENT_DIR and
CHANGE_DIR in turn, PAIRS times, swapping which side runs first on every
pair, and gives both sides of a pair the same seed.  Each run's result is
the JSON object on the last line of its stdout.  For every end-to-end
metric in CHANGE_DIR's ``BENCHMARK.json`` it prints the median and
quartiles of each side, the number of pairs the change wins (ties count
for neither side) and the verdict of :func:`verdict`: whether the change
wins nine tenths of the pairs, whether its median gain exceeds the
parent's interquartile range, whether its median is worse by no more
than that range, and whether it stays within the metric's ``bound``.  It
also prints the failed-operation counts.  Every run lasts the
``run_seconds`` of CHANGE_DIR's ``BENCHMARK.json``.  Nothing under
``perfbench/`` is imported.

With ``--experiments``, times ``harness.run_experiment`` of each listed
experiment at ``ExperimentConfig`` defaults (mesh density 8), in a fresh
process per run with the checkout's ``src`` first on the path, RUNS
times per side, swapping which side runs first on every run.  It prints
the same columns per experiment, against the ``bound`` of ``wall_s``.

With ``--json PATH`` either mode also writes its record to PATH: both
sides' commits, their per-run values and the verdict per metric or
experiment.

Usage: python scripts/bench_ab.py PARENT_DIR CHANGE_DIR --workload W --pairs N
           [--first-seed K] [--json PATH]
       python scripts/bench_ab.py PARENT_DIR CHANGE_DIR --experiments A,B --runs N
           [--json PATH]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run.py exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Times one experiment at ExperimentConfig defaults; argv[1] is its id.
_EXPERIMENT_RUN = """\
import json, sys, time
from invlap import harness
start = time.perf_counter()
harness.run_experiment(harness.ExperimentConfig(experiment=sys.argv[1]))
print(json.dumps({"wall_s": time.perf_counter() - start}))
"""


def run_experiment(checkout: Path, experiment: str) -> float:
    """Wall seconds of one experiment in a fresh process in checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    proc = subprocess.run([sys.executable, "-c", _EXPERIMENT_RUN, experiment], cwd=checkout,
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: experiment {experiment} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(old: list, new: list, better: str, bound: float) -> dict:
    """Verdict on one metric from paired runs: old[i] and new[i] share a seed.

    - ``wins``, ``ties``: pairs the change is better in, and equal in;
    - ``wins_ok``: the change wins at least nine tenths of the pairs, ties
      counting for neither side;
    - ``gap_ok``: the change's median is better than the parent's by more
      than the parent's interquartile range;
    - ``level_ok``: the change's median is worse than the parent's by at
      most the parent's interquartile range;
    - ``bound``: "within" if the change's median is worse than the
      parent's by at most ``bound`` times the parent's median, "outside"
      if by more, and "unresolved" if the parent's interquartile range is
      itself wider than that, so the runs cannot tell.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    ties = sum(a == b for a, b in zip(old, new))
    q1, median, q3 = quartiles(old)
    change = quartiles(new)
    gain = sign * (median - change[1])
    limit = bound * abs(median)
    if q3 - q1 > limit:
        within = "unresolved"
    else:
        within = "within" if -gain <= limit else "outside"
    return {"parent": (q1, median, q3), "change": change, "wins": wins, "ties": ties,
            "wins_ok": wins >= 0.9 * len(old), "gap_ok": gain > q3 - q1,
            "level_ok": -gain <= q3 - q1, "bound": within}


def commit_of(checkout: Path) -> dict:
    """The commit a checkout has out, and whether its tracked files differ
    from it; the sha is None outside a git work tree."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no")) if sha else None
    return {"sha": sha, "dirty": dirty}


def record(spec: dict, workload: str, first_seed: int, results: dict, commits: dict) -> dict:
    """The A/B run as one JSON-ready dict.

    results and commits map "parent" and "change" to the run results, in
    pair order, and to :func:`commit_of`.  Per end-to-end metric of spec
    the record holds each side's per-pair values and the verdict.
    """
    pairs = len(results["parent"])
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in ("parent", "change")}
        metrics[name] = {**values, "verdict": verdict(values["parent"], values["change"],
                                                      metric["better"], metric["bound"])}
    return {
        "workload": workload, "pairs": pairs, "seeds": list(range(first_seed, first_seed + pairs)),
        "run_seconds": spec["run_seconds"], "commits": commits, "metrics": metrics,
        "failed": {side: [r["failed"] for r in results[side]] for side in ("parent", "change")},
        "correct": {side: [r["correct"] for r in results[side]] for side in ("parent", "change")},
    }


def experiments_record(spec: dict, experiments: list, results: dict, commits: dict) -> dict:
    """The experiment runs as one JSON-ready dict.

    results maps "parent" and "change" to {experiment: wall seconds in run
    order}.  Each experiment's verdict takes the bound of ``wall_s``.
    """
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    metrics = {}
    for experiment in experiments:
        values = {side: results[side][experiment] for side in ("parent", "change")}
        metrics[experiment] = {**values, "verdict": verdict(
            values["parent"], values["change"], "lower", bound)}
    return {"experiments": experiments, "runs": len(results["parent"][experiments[0]]),
            "commits": commits, "metrics": metrics}


def print_verdicts(metrics: dict, better: dict, n: int) -> None:
    """One line per metric: each side's median (q1-q3), wins and verdict."""
    print(f"{'metric':12s} {'better':6s} {'parent median (q1-q3)':>30s} "
          f"{'change median (q1-q3)':>30s} {'change wins':>18s} {'>=9/10':>6s} "
          f"{'gap>IQR':>7s} {'<=IQR':>5s} {'bound':>10s}")
    for name, entry in metrics.items():
        v = entry["verdict"]
        cells = [f"{q2:.6g} ({q1:.6g}-{q3:.6g})" for q1, q2, q3 in (v["parent"], v["change"])]
        wins = f"{v['wins']} of {n}" + (f", {v['ties']} tied" if v["ties"] else "")
        print(f"{name:12s} {better[name]:6s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{wins:>18s} {'yes' if v['wins_ok'] else 'no':>6s} "
              f"{'yes' if v['gap_ok'] else 'no':>7s} {'yes' if v['level_ok'] else 'no':>5s} "
              f"{v['bound']:>10s}")


def main_experiments(args, spec: dict, sides: dict) -> dict:
    experiments = [e.strip() for e in args.experiments.split(",") if e.strip()]
    results = {side: {e: [] for e in experiments} for side in sides}
    for i in range(args.runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for experiment in experiments:
            for side in order:
                wall = run_experiment(sides[side], experiment)
                results[side][experiment].append(wall)
                print(f"run {i + 1}/{args.runs} experiment {experiment} {side}: "
                      f"wall_s {wall:.4f}", file=sys.stderr, flush=True)
    print(f"experiments {','.join(experiments)} at ExperimentConfig defaults, "
          f"{args.runs} alternating runs per side, wall_s")
    out = experiments_record(spec, experiments, results,
                             {side: commit_of(path) for side, path in sides.items()})
    print_verdicts(out["metrics"], dict.fromkeys(experiments, "lower"), args.runs)
    return out


def main_workload(args, spec: dict, sides: dict) -> dict:
    seconds = spec["run_seconds"]
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(sides[side], args.workload, seed, seconds)
            results[side].append(result)
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: wall_s {wall} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)

    print(f"workload {args.workload}, {args.pairs} alternating pairs, {seconds:g} s runs")
    out = record(spec, args.workload, args.first_seed, results,
                 {side: commit_of(path) for side, path in sides.items()})
    print_verdicts(out["metrics"], {m["name"]: m["better"] for m in spec["end_to_end"]},
                   args.pairs)
    for side in ("parent", "change"):
        print(f"{side}: failed {out['failed'][side]}, correct "
              f"{out['correct'][side].count(True)} of {args.pairs}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed first_seed + i")
    parser.add_argument("--experiments",
                        help="comma-separated experiment ids to time instead of a workload")
    parser.add_argument("--runs", type=int, help="runs per side and experiment")
    parser.add_argument("--json", type=Path, help="also write the record of the runs here")
    args = parser.parse_args()
    if (args.workload is None) == (args.experiments is None):
        parser.error("give either --workload with --pairs or --experiments with --runs")
    if args.workload is not None and (args.pairs or 0) < 1:
        parser.error("--pairs must be >= 1")
    if args.experiments is not None and (args.runs or 0) < 1:
        parser.error("--runs must be >= 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    main_mode = main_experiments if args.experiments is not None else main_workload
    out = main_mode(args, spec, sides)
    if args.json:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
