"""De Hoog's quotient-difference table and continued fraction, built the
older ways.

Test-suite-only oracles for ``invlap.algorithms``:

* ``_qd_coefficients`` builds the table one entry at a time.  The
  library builds each table column as one array step over all rows and
  channels.  The arithmetic is the same, but numpy rounds complex
  products and quotients in its SIMD array loops differently from its
  scalar path, and the table amplifies that rounding, so the two agree
  closely rather than bit for bit.  ``qd_columns`` runs it on each column
  of a ``(2M+1, k)`` sample array and returns the array table's layout: a
  ``(2M+1, k)`` array whose broken-down columns are NaN.  Patched in for
  ``invlap.algorithms._qd_coefficients``, it replays the entry-wise
  inversion through ``invert_all``.
* ``qd_array_steps`` is the array-step table that negates each column
  head into d as the loop goes; the library collects the heads and
  negates them once, bit for bit the same.
* ``dehoog_eval_numpy`` runs the continued-fraction recurrence on numpy
  scalars; the library runs it on Python complex numbers, bit for bit
  the same.
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


def qd_array_steps(a: np.ndarray) -> np.ndarray:
    """The table of ``(2M+1, k)`` series, one array step per column."""
    m = (a.shape[0] - 1) // 2
    d = np.empty(a.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = a.astype(complex)
        c[0] *= 0.5
        d[0] = c[0]
        q = c[1:] / c[:-1]
        e = np.zeros_like(c)
        for j in range(1, m + 1):
            e = q[1:] - q[:-1] + e[1:q.shape[0]]
            d[2 * j - 1] = -q[0]
            d[2 * j] = -e[0]
            q = q[1:-1] * e[1:] / e[:-1]
    return d


def dehoog_eval_numpy(d, z) -> complex:
    """The continued fraction d_0..d_2M at z, in numpy scalars throughout."""
    d = np.asarray(d, dtype=complex)
    z = np.complex128(z)
    m = (d.shape[0] - 1) // 2
    a_prev, a_cur = 0.0 + 0j, d[0]
    b_prev, b_cur = 1.0 + 0j, 1.0 + 0j
    for i in range(1, 2 * m):
        a_prev, a_cur = a_cur, a_cur + d[i] * z * a_prev
        b_prev, b_cur = b_cur, b_cur + d[i] * z * b_prev
    brem = (1.0 + (d[2 * m - 1] - d[2 * m]) * z) / 2.0
    rem = -brem * (1.0 - np.sqrt(1.0 + d[2 * m] * z / (brem * brem)))
    a_last = a_cur + rem * a_prev
    b_last = b_cur + rem * b_prev
    if b_last == 0:
        return complex(np.nan)
    return a_last / b_last
