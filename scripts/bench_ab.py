#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark in two checkouts.

Runs ``perfbench/run.py`` in PARENT_DIR and CHANGE_DIR in turn, PAIRS
times, swapping which side runs first on every pair, and gives both sides
of a pair the same seed.  Each run's result is the JSON object on the
last line of its stdout.  For every end-to-end metric in CHANGE_DIR's
``BENCHMARK.json`` it prints the median and quartiles of each side, the
number of pairs the change wins (ties count for neither side) and the
verdict of :func:`verdict`: whether the change wins nine tenths of the
pairs, whether its median gain exceeds the parent's interquartile range,
and whether it stays within the metric's ``bound``.  It also prints the
failed-operation counts.  Every run lasts the
``run_seconds`` of CHANGE_DIR's ``BENCHMARK.json``.  Nothing under
``perfbench/`` is imported.  With ``--json PATH`` it also writes the
record of :func:`record` to PATH: both sides' commits, their per-pair
values and the verdict per metric.

Usage: python scripts/bench_ab.py PARENT_DIR CHANGE_DIR --workload W --pairs N
           [--first-seed K] [--json PATH]
"""

import argparse
import json
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
            "wins_ok": wins >= 0.9 * len(old), "gap_ok": gain > q3 - q1, "bound": within}


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed first_seed + i")
    parser.add_argument("--json", type=Path, help="also write the record of the runs here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
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
    print(f"{'metric':12s} {'better':6s} {'parent median (q1-q3)':>30s} "
          f"{'change median (q1-q3)':>30s} {'change wins':>18s} {'>=9/10':>6s} "
          f"{'gap>IQR':>7s} {'bound':>10s}")
    out = record(spec, args.workload, args.first_seed, results,
                 {side: commit_of(path) for side, path in sides.items()})
    for metric in spec["end_to_end"]:
        name = metric["name"]
        v = out["metrics"][name]["verdict"]
        cells = [f"{q2:.6g} ({q1:.6g}-{q3:.6g})" for q1, q2, q3 in (v["parent"], v["change"])]
        wins = f"{v['wins']} of {args.pairs}" + (f", {v['ties']} tied" if v["ties"] else "")
        print(f"{name:12s} {metric['better']:6s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{wins:>18s} {'yes' if v['wins_ok'] else 'no':>6s} "
              f"{'yes' if v['gap_ok'] else 'no':>7s} {v['bound']:>10s}")
    for side in ("parent", "change"):
        print(f"{side}: failed {out['failed'][side]}, correct "
              f"{out['correct'][side].count(True)} of {args.pairs}")
    if args.json:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
