#!/usr/bin/env python3
"""Accuracy table of every inversion method on the analytic pair catalog,
each at its ``harness.PAIR_TERMS`` order.

Usage: python scripts/run_pairs.py [output_dir]
"""

import sys
from pathlib import Path

from invlap import harness, oracles
from invlap.core import METHODS, make_time_grid


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    out.mkdir(parents=True, exist_ok=True)
    grid = make_time_grid(0.1, 1.0, 15)
    rows = harness.run_pairs_benchmark(METHODS, oracles.pair_catalog(), None, grid)
    with open(out / "pairs.csv", "w") as fh:
        harness.write_pairs_csv(rows, fh)
    width = max(len(r["pair"]) for r in rows)
    for row in rows:
        print(f"{row['method']:9s} {row['pair']:{width}s} "
              f"max {row['max_rel_err']:.3e}  mean {row['mean_rel_err']:.3e}  "
              f"evals {row['evaluations']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
