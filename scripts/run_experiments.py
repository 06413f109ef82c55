#!/usr/bin/env python3
"""Run all four benchmark experiments and write their CSV outputs.

Prints per experiment and method the image calls and the model solves
they cost; a p solved by an earlier experiment costs no solve.

Usage: python scripts/run_experiments.py [output_dir]
"""

import sys
import time
from pathlib import Path

from invlap import harness


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    out.mkdir(parents=True, exist_ok=True)
    summaries = []
    for experiment in sorted(harness.EXPERIMENT_DEFAULTS):
        start = time.perf_counter()
        result = harness.run_experiment(harness.ExperimentConfig(experiment=experiment))
        elapsed = time.perf_counter() - start
        path = out / f"experiment_{experiment}.csv"
        with open(path, "w") as fh:
            harness.write_experiment_csv(result, fh)
        summaries.extend(result.summary)
        evals = {m: r.evaluations_measured for m, r in result.runs.items()}
        solves = {m: r.model_solves for m, r in result.runs.items()}
        print(f"experiment {experiment}: {elapsed:6.1f}s  evaluations {evals}  "
              f"model solves {solves}")
    with open(out / "summary.csv", "w") as fh:
        harness.write_summary_csv(summaries, fh)
    print(f"wrote {out}/summary.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
