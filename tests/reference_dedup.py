"""Greedy quadratic node merge: the differential oracle for invlap.core._dedup.

Test-suite-only reference.  Each node, in plan order, is compared with
every representative made so far, in the order they were made, and joins
the first one within ``DEDUP_RTOL`` relative distance; a node that joins
none becomes a new representative.  ``invlap.core._dedup`` finds the same
candidates through a sort by modulus, so the two must agree bit for bit:
the distinct array, its order and every index array.
"""

import numpy as np

from invlap.core import DEDUP_RTOL


def dedup(nodes: list) -> tuple:
    """Merge near-identical p values; returns (distinct array, index arrays)."""
    reps: list = []
    index_arrays = []
    for arr in nodes:
        idx = np.empty(arr.size, dtype=int)
        for j, v in enumerate(arr):
            hit = -1
            for k, r in enumerate(reps):
                if abs(v - r) <= DEDUP_RTOL * max(abs(v), abs(r)):
                    hit = k
                    break
            if hit < 0:
                reps.append(v)
                hit = len(reps) - 1
            idx[j] = hit
        index_arrays.append(idx)
    return np.array(reps, dtype=complex), index_arrays
