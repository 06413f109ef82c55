"""Truncation floor of Weeks' Laguerre expansion at given (kappa, b, N).

Test-suite-only oracle.  It shares no code with ``invlap``'s Weeks
inverter: the coefficients come from a dense full-circle midpoint rule
(aliasing far below the truncation error) and the series is summed with
``scipy.special.eval_laguerre``.  The result is the error of the N-term
expansion with exact coefficients, which no implementation at the same
parameters can get below.

Convention (Weeks 1966; Weideman 1999, with b_W = b/2, sigma_W = kappa):

    f(t) ~ exp((kappa - b/2) t) sum_{n=0}^{N} a_n L_n(b t),
    sum_n a_n w^n = b/(1 - w) fbar(kappa - b/2 + b/(1 - w)),  |w| < 1.

``half_circle_coefficients`` is a second, separate oracle: the library's
half-circle midpoint rule with its node factors and kernel rebuilt on
every call, against which the cached kernel must agree bit for bit.
"""

import numpy as np
from scipy.special import eval_laguerre

#: midpoints on the full unit circle for the coefficient integrals
QUADRATURE_NODES = 2048


def rule_of_thumb(terms: int, t_max: float, sigma: float = 0.0):
    """(kappa, b, N) with kappa = sigma + 1/t_max, b = N/t_max, N = terms - 1."""
    n = terms - 1
    return sigma + 1.0 / t_max, n / t_max, n


def laguerre_coefficients(image, kappa: float, b: float, n_coeffs: int) -> np.ndarray:
    """a_0..a_N from a full-circle midpoint rule; image must accept arrays."""
    nodes = QUADRATURE_NODES
    theta = (np.arange(nodes) + 0.5) * (2.0 * np.pi / nodes)
    w = np.exp(1j * theta)
    psi = b / (1.0 - w) * image(kappa - b / 2.0 + b / (1.0 - w))
    n = np.arange(n_coeffs + 1)
    return (np.exp(-1j * np.outer(n, theta)) @ psi).real / nodes


def truncation_floor(image, time_function, times, kappa: float, b: float,
                     n_coeffs: int) -> float:
    """Maximum relative error over times of the N-term expansion with exact a_n."""
    t = np.asarray(times, dtype=float)
    a = laguerre_coefficients(image, kappa, b, n_coeffs)
    basis = np.array([eval_laguerre(n, b * t) for n in range(n_coeffs + 1)])
    series = np.exp((kappa - b / 2.0) * t) * (a @ basis)
    ref = np.asarray(time_function(t), dtype=float)
    return float(np.max(np.abs(series - ref) / np.maximum(np.abs(ref), 1e-300)))


def half_circle_coefficients(samples, params) -> np.ndarray:
    """a_0..a_N from samples at the M upper half-circle midpoints."""
    vals = np.asarray(samples, dtype=complex)
    m = params.m_half
    theta = (np.arange(1, m + 1) - 0.5) * np.pi / m
    z = np.exp(1j * theta)
    psi = (params.b / (1.0 - z))[(...,) + (None,) * (vals.ndim - 1)] * vals
    kernel = np.exp(-1j * np.outer(np.arange(params.n_coeffs + 1), theta))
    return np.tensordot(kernel, psi, axes=(1, 0)).real / m
