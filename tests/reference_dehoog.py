"""De Hoog's quotient-difference table built one entry at a time.

Test-suite-only oracle for ``invlap.algorithms._qd_coefficients``, which
builds each table column as one array step over all rows and channels.
The arithmetic is the same, but numpy rounds complex products and
quotients in its SIMD array loops differently from its scalar path, and
the table amplifies that rounding, so the two agree closely rather than
bit for bit.

``qd_columns`` runs :func:`_qd_coefficients` on each column of a
``(2M+1, k)`` sample array and returns the new table's layout: a
``(2M+1, k)`` array whose broken-down columns are NaN.  Patched in for
``invlap.algorithms._qd_coefficients``, it replays the old inversion
through ``invert_all``.
"""

import numpy as np


def _qd_coefficients(a: np.ndarray):
    """Continued-fraction coefficients d_0..d_2M from the power series a_k.

    Quotient-difference rhombus rules; returns None when the table breaks
    down (zero divisions on degenerate series).
    """
    m = (a.shape[0] - 1) // 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.zeros((2 * m + 1, m + 1), dtype=complex)
        e = np.zeros((2 * m + 2, m + 1), dtype=complex)
        c = a.astype(complex).copy()
        c[0] *= 0.5
        q[0, 1] = c[1] / c[0]
        for i in range(1, 2 * m):
            q[i, 1] = c[i + 1] / c[i]
        for j in range(1, m + 1):
            for i in range(0, 2 * (m - j) + 1):
                e[i, j] = q[i + 1, j] - q[i, j] + e[i + 1, j - 1]
            if j < m:
                for i in range(0, 2 * (m - j)):
                    q[i, j + 1] = q[i + 1, j] * e[i + 1, j] / e[i, j]
        d = np.empty(2 * m + 1, dtype=complex)
        d[0] = c[0]
        for j in range(1, m + 1):
            d[2 * j - 1] = -q[0, j]
            d[2 * j] = -e[0, j]
    if not np.all(np.isfinite(d)):
        return None
    return d


def qd_columns(a: np.ndarray) -> np.ndarray:
    """The scalar table per column, in the layout of the array table."""
    d = np.empty(a.shape, dtype=complex)
    for j in range(a.shape[1]):
        col = _qd_coefficients(a[:, j])
        d[:, j] = np.nan if col is None else col
    return d
