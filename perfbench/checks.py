"""Output checks: accounting, flags and accuracy against independent references.

An operation fails when it raises, when its measured image calls differ
from its plan, when its per-time flags differ from the ones the code the
benchmark was defined on produced for the same inputs (``expected.json``),
when an unflagged time is not finite, or when its error exceeds the stated
tolerance.  Documented failure modes (Weeks at the rule-of-thumb floor,
Talbot before the delay, Schapery on the sinusoid, Stehfest on oscillating
images) are part of the expected flags and errors, so they do not count.
"""

from __future__ import annotations

import numpy as np

#: An error passes when it is at most ERR_FACTOR times the expected error
#: plus ERR_FLOOR; the floor absorbs round-off level differences.
ERR_FACTOR = 2.0
ERR_FLOOR = 1e-10


def encode_flags(flags) -> dict:
    """Non-empty per-time flags as {time index: 'a+b'}."""
    return {str(i): "+".join(f) for i, f in enumerate(flags) if f}


def reference_columns(row) -> dict:
    if callable(row.reference):
        ref = np.asarray(row.reference(row.times), dtype=float)
        return {name: ref for name in row.columns}
    return row.reference


def row_errors(row) -> dict:
    """Normalised max error per column over unflagged finite times."""
    unflagged = np.array([not f for f in row.flags], dtype=bool)
    out = {}
    for name, ref in reference_columns(row).items():
        values = np.asarray(row.columns[name], dtype=float)
        scale = float(np.max(np.abs(ref))) or 1.0
        use = unflagged & np.isfinite(values)
        out[name] = float(np.max(np.abs(values[use] - ref[use])) / scale) if use.any() else 0.0
    return out


def check_rows(rows: list, expected: dict) -> tuple:
    """Compare a sweep's rows with the expected outputs.

    Returns (attempted, failures, ratios): failures is a list of
    (key, reason) and ratios holds, for each column of each passing row,
    (error + ERR_FLOOR) / (expected error + ERR_FLOOR), which is 1 for the
    code the benchmark was defined on.  Every expected key is one
    attempted operation; a missing key fails.
    """
    failures = []
    ratios = []
    seen = set()
    for row in rows:
        if row.key.endswith("/*"):
            # a whole group raised before producing per-operation rows
            covered = [k for k in expected if k.startswith(row.key[:-1])] or [row.key]
            failures.extend((k, row.error) for k in covered)
            seen.update(covered)
            continue
        seen.add(row.key)
        want = expected.get(row.key)
        reason = _row_failure(row, want)
        if reason:
            failures.append((row.key, reason))
        else:
            ratios.extend((err + ERR_FLOOR) / (want["err"][name] + ERR_FLOOR)
                          for name, err in row_errors(row).items())
    missing = [k for k in expected if k not in seen]
    failures.extend((k, "missing from the sweep") for k in missing)
    extra = [k for k in seen if k not in expected]
    return len(expected) + len(extra), failures, ratios


def _row_failure(row, want) -> str:
    if want is None:
        return "not an expected operation" + (f": {row.error}" if row.error else "")
    if row.error:
        return row.error
    if row.measured != row.planned:
        return f"accounting: measured {row.measured} image calls, planned {row.planned}"
    got_flags = encode_flags(row.flags)
    if got_flags != want["flags"]:
        return f"flags {got_flags} differ from expected {want['flags']}"
    unflagged = np.array([not f for f in row.flags], dtype=bool)
    for name, values in row.columns.items():
        bad = unflagged & ~np.isfinite(np.asarray(values, dtype=float))
        if bad.any():
            return f"{name}: unflagged non-finite value at times {np.nonzero(bad)[0].tolist()}"
    for name, err in row_errors(row).items():
        tol = ERR_FACTOR * want["err"][name] + ERR_FLOOR
        if not err <= tol:
            return f"{name}: error {err:.3e} exceeds tolerance {tol:.3e}"
    return ""
