#!/usr/bin/env python3
"""Largest difference per (file, method) between two output directories.

Compares every CSV file that both directories hold, as written by
``run_experiments.py`` and ``run_pairs.py``, row by row.  For each file
and each value of its ``method`` column it prints the largest absolute
and relative difference over the numeric cells, and the number of rows
that differ in any cell (numeric or not, a flag say).  Relative
differences are taken against the OLD value; a value that changes from
or to NaN, or away from zero, counts as an infinite relative change.
A CSV file that only one directory holds is listed after the table, and
makes the exit status 1.

Usage: python scripts/csv_drift.py OLD_DIR NEW_DIR
"""

import csv
import math
import sys
from pathlib import Path


def _rows(path: Path) -> tuple:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    return header, rows


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _diff(old: float, new: float) -> tuple:
    """(absolute, relative) difference; (0, 0) for equal values and NaNs."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0, 0.0
    if math.isnan(old) or math.isnan(new):
        return math.inf, math.inf
    change = abs(new - old)
    return change, change / abs(old) if old else math.inf


def drift(old_path: Path, new_path: Path) -> dict:
    """{method: [max abs, max rel, changed rows, rows]} for one file pair."""
    header, old_rows = _rows(old_path)
    new_header, new_rows = _rows(new_path)
    if header != new_header or len(old_rows) != len(new_rows):
        raise ValueError(f"{old_path.name}: header or row count differs")
    col = header.index("method")
    out: dict = {}
    for old, new in zip(old_rows, new_rows):
        if old[col] != new[col]:
            raise ValueError(f"{old_path.name}: rows out of step ({old[col]} / {new[col]})")
        entry = out.setdefault(old[col], [0.0, 0.0, 0, 0])
        entry[3] += 1
        if old == new:
            continue
        entry[2] += 1
        for a, b in zip(old, new):
            x, y = _number(a), _number(b)
            if x is not None and y is not None:
                change, rel = _diff(x, y)
                entry[0] = max(entry[0], change)
                entry[1] = max(entry[1], rel)
    return out


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[1]), Path(argv[2])
    old_names, new_names = ({p.name for p in d.glob("*.csv")} for d in (old_dir, new_dir))
    if not old_names & new_names:
        print(f"no CSV files common to {old_dir} and {new_dir}", file=sys.stderr)
        return 2
    print(f"{'file':18s} {'method':16s} {'max abs':>10s} {'max rel':>10s} "
          f"{'rows changed':>13s}")
    for name in sorted(old_names & new_names):
        for method, (change, rel, changed, rows) in drift(old_dir / name,
                                                          new_dir / name).items():
            print(f"{name:18s} {method:16s} {change:10.2e} {rel:10.2e} "
                  f"{changed:6d} / {rows:<5d}")
    for only, there in ((old_names - new_names, old_dir), (new_names - old_names, new_dir)):
        for name in sorted(only):
            print(f"{name:18s} only in {there}")
    return 1 if old_names != new_names else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
