"""Schapery's collocation fit through ``scipy.linalg.solve``.

Test-suite-only oracle for ``invlap.algorithms.schapery_fit``, which
factors P_ij = 1/(p_i + p_j) once per node ladder with LAPACK ``dsytrf``
and back-substitutes with ``dsytrs`` per fit.  ``solve(assume_a="sym")``
runs the same factorization and substitution on every call, so the two
agree bit for bit on ladders of two or more nodes.  On a one-node ladder
``solve`` divides by P_11 where ``dsytrs`` multiplies by its reciprocal,
which may differ in the last bit.
"""

import warnings

import numpy as np
import scipy.linalg


def fit_coefficients(samples, params) -> np.ndarray:
    """Coefficients a of P a = fbar(p_j) - f_s/p_j for real samples."""
    p = np.asarray(params.nodes, dtype=float)
    vals = np.asarray(samples, dtype=float)
    f_s = p[0] * vals[0] if params.f_s is None else np.asarray(params.f_s, dtype=float)
    mat = 1.0 / (p[:, None] + p[None, :])
    rhs = vals - np.multiply.outer(1.0 / p, f_s) if vals.ndim > 1 else vals - f_s / p
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.solve(mat, rhs, assume_a="sym")
