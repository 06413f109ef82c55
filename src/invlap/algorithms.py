"""The five inverse Laplace transform algorithms.

Each algorithm is split into the pieces a sample-reusing driver needs:
parameter containers with rule-of-thumb constructors, node generators
(where the node layout is the algorithm's own), and inverters that map a
vector of image-function samples to time-domain values.

All inverters are pure functions of (samples, parameters, t).  Numerical
failure of a single output time is reported through returned flag strings
rather than exceptions, so a sweep over many times survives partial
breakdown (a deformed-contour overflow, say) without aborting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrs

from .specfun import laguerre_sum

LN2 = math.log(2.0)

#: Stehfest orders beyond this suffer catastrophic cancellation in double
#: precision unless explicitly overridden.
STEHFEST_DEFAULT_MAX_TERMS = 18

#: Default target relative accuracy for the accelerated Fourier series.
DEHOOG_DEFAULT_EPS = 1e-8

#: Talbot quadrature-tail guard: if the last contour term has not decayed
#: below this fraction of the largest term, the sum never converged and the
#: result is flagged.
TALBOT_TAIL_RATIO = 1e-8

#: Exponent limit before exp() overflows double precision.
_EXP_LIMIT = 700.0

#: Largest admissible relative imaginary part for samples on real contours.
_REAL_SAMPLE_IMAG_RTOL = 1e-12

FLAG_TALBOT_TAIL = "talbot-tail"
FLAG_NONFINITE_SAMPLES = "nonfinite-samples"
FLAG_QD_FALLBACK = "qd-fallback"
FLAG_EXP_OVERFLOW = "exp-overflow"


class SingularFitError(RuntimeError):
    """Raised when an exponential-fit collocation matrix cannot be solved."""


def _flagged_nan(shape: tuple, flag: str):
    """(NaN of the given channel shape, (flag,)) for a time that cannot invert."""
    return (np.full(shape, np.nan) if shape else math.nan), (flag,)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Freeze an array that a cache hands out to every caller."""
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StehfestParams:
    """Gaver-Stehfest order N (must be even)."""

    n_terms: int
    allow_large: bool = False

    def __post_init__(self):
        if self.n_terms < 2 or self.n_terms % 2:
            raise ValueError("Stehfest order must be an even integer >= 2")
        if self.n_terms > STEHFEST_DEFAULT_MAX_TERMS and not self.allow_large:
            raise ValueError(
                f"Stehfest order {self.n_terms} exceeds the double-precision "
                f"default cap {STEHFEST_DEFAULT_MAX_TERMS}; pass allow_large=True"
            )

    @classmethod
    def rule_of_thumb(cls, terms: int) -> "StehfestParams":
        """Round an odd request up to the next even order."""
        n = terms + (terms % 2)
        return cls(n_terms=max(2, n), allow_large=n > STEHFEST_DEFAULT_MAX_TERMS)


@dataclass(frozen=True)
class SchaperyParams:
    """Collocation nodes for the exponential-basis fit.

    f_s is the steady-state value the expansion decays toward.  When left
    as None it is estimated from the sample at the smallest node via the
    final-value theorem, which costs no extra image evaluations.
    """

    nodes: tuple
    f_s: float | None = None

    def __post_init__(self):
        p = np.asarray(self.nodes, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("Schapery nodes must be a nonempty 1-D sequence")
        if not np.all((p > 0) & (p < math.inf)):
            raise ValueError("Schapery nodes must be finite and strictly positive")
        if self.f_s is not None and not math.isfinite(self.f_s):
            raise ValueError(f"Schapery f_s must be finite, got {self.f_s!r}")
        if np.any(np.diff(p) <= 0):
            raise ValueError("Schapery nodes must be strictly increasing")
        object.__setattr__(self, "nodes", tuple(float(v) for v in p))

    @classmethod
    def geometric(cls, terms: int, t_min: float, t_max: float,
                  f_s: float | None = None) -> "SchaperyParams":
        """Geometric node ladder from 1/(10 t_max) up to 10/t_min."""
        p_lo = 1.0 / (10.0 * t_max)
        p_hi = 10.0 / t_min
        if terms == 1:
            return cls(nodes=(math.sqrt(p_lo * p_hi),), f_s=f_s)
        nodes = np.geomspace(p_lo, p_hi, terms)
        return cls(nodes=tuple(nodes), f_s=f_s)


@dataclass(frozen=True)
class WeeksParams:
    """Laguerre-expansion shift kappa, scale b, order, and midpoint half-count."""

    kappa: float
    b: float
    n_coeffs: int
    m_half: int

    def __post_init__(self):
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"Weeks scale b must be positive and finite, got {self.b!r}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"Weeks shift kappa must be finite, got {self.kappa!r}")
        if 2 * self.m_half < self.n_coeffs + 1:
            raise ValueError("midpoint rule needs 2M >= N + 1")

    @classmethod
    def rule_of_thumb(cls, terms: int, t_max: float, sigma: float = 0.0) -> "WeeksParams":
        """kappa = sigma + 1/t_max, b = N/t_max with N = terms - 1."""
        n = max(terms - 1, 0)
        return cls(kappa=sigma + 1.0 / t_max,
                   b=max(n, 1) / t_max,
                   n_coeffs=n,
                   m_half=max(terms, 1))


@dataclass(frozen=True)
class TalbotParams:
    """Fixed-Talbot contour scale r and node count N."""

    r: float
    n_nodes: int

    def __post_init__(self):
        if not 0.0 < self.r < math.inf:
            raise ValueError(f"Talbot contour scale r must be positive and finite, "
                             f"got {self.r!r}")
        if self.n_nodes < 2:
            raise ValueError("Talbot needs at least 2 nodes")

    @classmethod
    def rule_of_thumb(cls, terms: int, t_max: float) -> "TalbotParams":
        """r = 2M / (5 t_max) with M = terms."""
        return cls(r=2.0 * terms / (5.0 * t_max), n_nodes=terms)


@dataclass(frozen=True)
class DeHoogParams:
    """Accelerated Fourier series: period T, abscissa gamma0, 2M+1 terms."""

    big_t: float
    gamma0: float
    m_half: int

    def __post_init__(self):
        if not 0.0 < self.big_t < math.inf:
            raise ValueError(f"scaling period T must be positive and finite, got {self.big_t!r}")
        if not math.isfinite(self.gamma0):
            raise ValueError(f"abscissa gamma0 must be finite, got {self.gamma0!r}")
        if self.m_half < 1:
            raise ValueError("need M >= 1 (2M+1 >= 3 terms)")

    @classmethod
    def rule_of_thumb(cls, terms: int, t_max: float, sigma: float = 0.0) -> "DeHoogParams":
        """T = 2 t_max, gamma0 = sigma - ln(DEHOOG_DEFAULT_EPS)/T; terms = 2M+1."""
        m = max((terms - 1) // 2, 1)
        big_t = 2.0 * t_max
        return cls(big_t=big_t, gamma0=sigma - math.log(DEHOOG_DEFAULT_EPS) / big_t, m_half=m)


# ---------------------------------------------------------------------------
# Gaver-Stehfest
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _stehfest_weights_exact(n: int) -> tuple:
    """Salzer summation weights as exact rationals.

    The factorial ratios overflow naive floating evaluation near N = 18,
    so the weights are built once in integer/rational arithmetic and only
    then rounded to float.
    """
    half = n // 2
    weights = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = Fraction(j ** half) * math.factorial(2 * j)
            den = (math.factorial(half - j) * math.factorial(j)
                   * math.factorial(j - 1) * math.factorial(k - j)
                   * math.factorial(2 * j - k))
            acc += num / den
        weights.append(acc if (k + half) % 2 == 0 else -acc)
    return tuple(weights)


@lru_cache(maxsize=32)
def stehfest_weights(n: int, allow_large: bool = False) -> np.ndarray:
    """Gaver-Stehfest weights V_1..V_N for even N, as a read-only array.

    The weights grow rapidly and alternate in sign; they satisfy
    sum V_k = 0 and sum V_k / k = 1 exactly.
    """
    StehfestParams(n_terms=n, allow_large=allow_large)  # validates
    return _read_only(np.array([float(v) for v in _stehfest_weights_exact(n)]))


def stehfest_nodes(t: float, params: StehfestParams) -> np.ndarray:
    """Real sample points k ln2 / t, k = 1..N."""
    return np.arange(1, params.n_terms + 1) * (LN2 / t)


def _require_real(samples, what: str) -> np.ndarray:
    v = np.asarray(samples, dtype=complex)
    scale = np.max(np.abs(v)) or 1.0
    if np.max(np.abs(v.imag)) > _REAL_SAMPLE_IMAG_RTOL * scale:
        raise ValueError(f"{what} expects real-valued samples; "
                         f"imaginary parts exceed {_REAL_SAMPLE_IMAG_RTOL:g} relative")
    return v.real


def stehfest_invert(samples, t: float, params: StehfestParams):
    """(ln2/t) sum V_k fbar(k ln2/t).

    samples holds fbar at the nodes of :func:`stehfest_nodes` in order;
    a trailing axis inverts several image channels at once.
    """
    vals = _require_real(samples, "stehfest_invert")
    if vals.shape[0] != params.n_terms:
        raise ValueError(f"expected {params.n_terms} samples, got {vals.shape[0]}")
    w = stehfest_weights(params.n_terms, allow_large=params.allow_large)
    return (LN2 / t) * np.tensordot(w, vals, axes=(0, 0))


# ---------------------------------------------------------------------------
# Schapery exponential fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchaperyFit:
    """Fitted expansion: f(t) ~= f_s + sum a_i exp(-p_i t)."""

    coefficients: np.ndarray
    nodes: np.ndarray
    f_s: np.ndarray
    condition: float


@lru_cache(maxsize=256)
def _collocation(nodes: tuple):
    """Read-only LDL^T factor of P_ij = 1/(p_i + p_j) (LAPACK ``dsytrf``,
    upper triangle), its status, and the 2-norm condition number of P.

    ``info > 0`` means the factor has an exactly zero pivot.
    """
    p = np.asarray(nodes, dtype=float)
    mat = 1.0 / (p[:, None] + p[None, :])
    lu, ipiv, info = dsytrf(mat)
    return _read_only(lu), _read_only(ipiv), info, float(np.linalg.cond(mat))


def schapery_fit(samples, params: SchaperyParams) -> SchaperyFit:
    """Solve the symmetric collocation system P a = fbar(p_j) - f_s/p_j.

    P_ij = 1/(p_i + p_j) depends only on the nodes, so it is factored
    once per node ladder and each fit is one back-substitution.  The
    system is dense and can be very ill conditioned for long geometric
    ladders; the 2-norm condition estimate is recorded on the result.
    Non-finite samples raise ValueError; a singular factor or non-finite
    coefficients raise :class:`SingularFitError`.
    """
    p = np.asarray(params.nodes, dtype=float)
    vals = _require_real(samples, "schapery_fit")
    if vals.shape[0] != p.size:
        raise ValueError(f"expected {p.size} samples, got {vals.shape[0]}")
    if params.f_s is None:
        # final-value estimate from the smallest node
        f_s = p[0] * vals[0]
    else:
        f_s = np.asarray(params.f_s, dtype=float)
    lu, ipiv, info, cond = _collocation(params.nodes)
    rhs = vals - np.multiply.outer(1.0 / p, f_s) if vals.ndim > 1 else vals - f_s / p
    if not np.all(np.isfinite(rhs)):
        raise ValueError("schapery_fit expects finite samples")
    if info > 0:
        raise SingularFitError(
            f"Schapery collocation matrix is singular (cond ~ {cond:.3e})")
    # dsytrs returns channels in Fortran order; schapery_eval's tensordot
    # sums a C-ordered array in another order, which moves its last bits
    a = np.ascontiguousarray(dsytrs(lu, ipiv, rhs)[0])
    if not np.all(np.isfinite(a)):
        raise SingularFitError(
            f"Schapery collocation solve produced non-finite coefficients "
            f"(cond ~ {cond:.3e})"
        )
    return SchaperyFit(coefficients=a, nodes=p, f_s=np.asarray(f_s), condition=cond)


def schapery_eval(fit: SchaperyFit, t: float):
    """f_s + sum a_i exp(-p_i t)."""
    decay = np.exp(-fit.nodes * t)
    return fit.f_s + np.tensordot(decay, fit.coefficients, axes=(0, 0))


# ---------------------------------------------------------------------------
# Weeks Laguerre expansion
# ---------------------------------------------------------------------------

def weeks_theta(params: WeeksParams) -> np.ndarray:
    """Upper half-circle midpoints theta_j = (j - 1/2) pi / M, j = 1..M."""
    m = params.m_half
    return (np.arange(1, m + 1) - 0.5) * np.pi / m


@lru_cache(maxsize=256)
def _weeks_kernel(params: WeeksParams):
    """Read-only b/(1 - e^{i theta_j}) and e^{-i n theta_j}, n = 0..N, at
    the midpoints of :func:`weeks_theta`."""
    theta = weeks_theta(params)
    scale = params.b / (1.0 - np.exp(1j * theta))
    kernel = np.exp(-1j * np.outer(np.arange(params.n_coeffs + 1), theta))
    return _read_only(scale), _read_only(kernel)


def weeks_nodes(params: WeeksParams) -> np.ndarray:
    """Laplace nodes p = kappa - b/2 + b/(1 - e^{i theta}) on Re p = kappa.

    Only the upper half of the 2M midpoints is generated; the lower half
    follows from Schwarz reflection of a real-valued time function, which
    halves the image evaluations.
    """
    scale, _ = _weeks_kernel(params)
    return params.kappa - params.b / 2.0 + scale


def weeks_coefficients(samples, params: WeeksParams) -> np.ndarray:
    """Expansion coefficients a_0..a_N by the midpoint rule.

    samples holds fbar at :func:`weeks_nodes` (upper half-circle); the
    conjugate half is reconstructed internally, which makes the returned
    coefficients exactly real.
    """
    vals = np.asarray(samples, dtype=complex)
    if vals.shape[0] != params.m_half:
        raise ValueError(f"expected {params.m_half} samples, got {vals.shape[0]}")
    scale, kernel = _weeks_kernel(params)
    psi = scale[(...,) + (None,) * (vals.ndim - 1)] * vals
    # a_n = (1/2M) sum over all 2M midpoints of Psi e^{-i n theta}; the
    # mirrored half contributes the conjugate, leaving twice the real part.
    return np.tensordot(kernel, psi, axes=(1, 0)).real / params.m_half


def weeks_eval(a, params: WeeksParams, t: float):
    """e^{(kappa - b/2) t} sum a_n L_n(b t) via Clenshaw; flags overflow."""
    exponent = (params.kappa - params.b / 2.0) * t
    if exponent > _EXP_LIMIT:
        return _flagged_nan(np.shape(a)[1:], FLAG_EXP_OVERFLOW)
    return math.exp(exponent) * laguerre_sum(a, params.b * t), ()


# ---------------------------------------------------------------------------
# fixed Talbot
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _talbot_nodes(r: float, n: int):
    """Read-only nodes p(theta_k) = r theta_k (cot theta_k + i) and weights
    1 + i (theta_k + (theta_k cot theta_k - 1) cot theta_k), k = 1..N-1,
    with theta_k = k pi / N.

    cot is reflected about pi/2 to avoid cancellation near pi.
    """
    k = np.arange(1, n)
    theta = k * np.pi / n
    cot = np.empty_like(theta)
    lower = theta <= np.pi / 2
    cot[lower] = 1.0 / np.tan(theta[lower])
    # cot(theta) = -cot(pi - theta); pi - theta_k is computed exactly from k
    cot[~lower] = -1.0 / np.tan((n - k[~lower]) * np.pi / n)
    zeta = theta + (theta * cot - 1.0) * cot
    return _read_only(r * theta * (cot + 1j)), _read_only(1.0 + 1j * zeta)


def talbot_contour(r: float, n: int) -> np.ndarray:
    """Deformed Bromwich nodes p(theta_k) = r theta_k (cot theta_k + i).

    theta_k = k pi / N for k = 0..N-1, with p(0) = r as the theta -> 0 limit.
    """
    if r <= 0:
        raise ValueError("contour scale r must be positive")
    p = np.empty(n, dtype=complex)
    p[0] = r
    p[1:] = _talbot_nodes(r, n)[0]
    return p


def talbot_invert(samples, t: float, params: TalbotParams):
    """Quadrature sum along the deformed contour, with tail-convergence guard.

    Returns (value, flags).  The sum is flagged when any sample along the
    contour is non-finite or when its last term has not decayed relative
    to the largest one, which happens whenever the image grows too fast as
    Re p -> -infinity for the requested t (delayed time behaviors).
    """
    vals = np.asarray(samples, dtype=complex)
    n = params.n_nodes
    if vals.shape[0] != n:
        raise ValueError(f"expected {n} samples, got {vals.shape[0]}")
    r = params.r
    if r * t > _EXP_LIMIT:
        return _flagged_nan(vals.shape[1:], FLAG_EXP_OVERFLOW)
    if not np.all(np.isfinite(vals)):
        return _flagged_nan(vals.shape[1:], FLAG_NONFINITE_SAMPLES)
    p, w = _talbot_nodes(r, n)
    w = w[(...,) + (None,) * (vals.ndim - 1)]
    ep = np.exp(t * p)[(...,) + (None,) * (vals.ndim - 1)]
    terms = ep * vals[1:] * w
    head = 0.5 * math.exp(r * t) * vals[0]
    total = (r / n) * (head + terms.sum(axis=0)).real
    peak = max(float(np.max(np.abs(terms))), float(np.max(np.abs(head))))
    tail = float(np.max(np.abs(terms[-1])))
    flags = ()
    if peak > 0 and tail > TALBOT_TAIL_RATIO * peak:
        flags = (FLAG_TALBOT_TAIL,)
    return total, flags


# ---------------------------------------------------------------------------
# de Hoog accelerated Fourier series
# ---------------------------------------------------------------------------

def dehoog_nodes(params: DeHoogParams) -> np.ndarray:
    """Vertical contour samples gamma0 + i k pi / T, k = 0..2M."""
    k = np.arange(2 * params.m_half + 1)
    return params.gamma0 + 1j * k * np.pi / params.big_t


def _qd_coefficients(a: np.ndarray) -> np.ndarray:
    """Continued-fraction coefficients d_0..d_2M from the power series a_k.

    a has shape (2M+1, k), one series per column; so has the result.  The
    quotient-difference rhombus rules build each table column as one
    array step over all rows and channels.  A column whose table breaks
    down (zero divisions on degenerate series) holds non-finite entries.
    """
    m = (a.shape[0] - 1) // 2
    d = np.empty(a.shape, dtype=complex)
    heads = []                       # q_1[0], e_1[0], q_2[0], e_2[0], ...
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = a.astype(complex)
        c[0] *= 0.5
        d[0] = c[0]
        q = c[1:] / c[:-1]           # q_1, rows 0..2M-1
        e = np.zeros_like(c)         # e_0
        for j in range(1, m + 1):
            # e_j rows 0..2(M-j), then q_{j+1} rows 0..2(M-j)-1
            e = q[1:] - q[:-1] + e[1:q.shape[0]]
            heads += (q[0], e[0])
            q = q[1:-1] * e[1:] / e[:-1]
        np.negative(heads, out=d[1:])
    return d


def _dehoog_eval(d: list, z: complex) -> complex:
    """Evaluate the continued fraction d_0..d_2M at z with the analytic
    remainder.

    The recurrence runs on Python complex numbers, which round as numpy's
    scalars do.  The remainder stays in numpy scalars: ``cmath.sqrt`` and
    Python's complex division round differently from numpy's.
    """
    m = (len(d) - 1) // 2
    zc = complex(z)
    a_prev, a_cur = 0j, d[0]
    b_prev, b_cur = 1 + 0j, 1 + 0j
    for di in d[1:2 * m]:
        dz = di * zc
        a_prev, a_cur = a_cur, a_cur + dz * a_prev
        b_prev, b_cur = b_cur, b_cur + dz * b_prev
    d_odd, d_even = np.complex128(d[2 * m - 1]), np.complex128(d[2 * m])
    brem = (1.0 + (d_odd - d_even) * z) / 2.0
    rem = -brem * (1.0 - np.sqrt(1.0 + d_even * z / (brem * brem)))
    a_last = a_cur + rem * a_prev
    b_last = b_cur + rem * b_prev
    if b_last == 0:
        return complex(np.nan)
    return a_last / b_last


def _dehoog_direct(a: np.ndarray, t: float, params: DeHoogParams):
    """Unaccelerated trapezoid sum (the fallback path).

    For gamma0 t up to the exp limit; :meth:`DeHoogTable.evaluate` flags
    larger ones before reaching here.
    """
    k = np.arange(a.shape[0])
    phase = np.exp(1j * k * np.pi * t / params.big_t)
    w = np.ones(a.shape[0])
    w[0] = 0.5
    ww = (w * phase)[(...,) + (None,) * (a.ndim - 1)]
    return math.exp(params.gamma0 * t) / params.big_t * (ww * a).sum(axis=0).real


class DeHoogTable:
    """Continued-fraction representation of one sample vector.

    samples holds fbar at :func:`dehoog_nodes`.  Building the
    quotient-difference table depends only on the samples, so a single
    table inverts every output time in a shared-sample sweep.
    """

    def __init__(self, samples, params: DeHoogParams):
        vals = np.asarray(samples, dtype=complex)
        expected = 2 * params.m_half + 1
        if vals.shape[0] != expected:
            raise ValueError(f"expected {expected} samples, got {vals.shape[0]}")
        self.params = params
        self.samples = vals
        self.scalar = vals.ndim == 1
        d = _qd_coefficients(vals.reshape(vals.shape[0], -1))
        self.tables = [col.tolist() if np.all(np.isfinite(col)) else None for col in d.T]

    def evaluate(self, t: float):
        """(value, flags) at t; a quotient-difference breakdown falls back
        to the direct trapezoid sum with a diagnostic flag, and a t whose
        exp(gamma0 t) overflows gives NaN with an exp-overflow flag."""
        params = self.params
        if params.gamma0 * t > _EXP_LIMIT:
            return _flagged_nan(self.samples.shape[1:], FLAG_EXP_OVERFLOW)
        z = np.exp(1j * np.pi * t / params.big_t)
        pref = math.exp(params.gamma0 * t) / params.big_t
        cols = self.samples.reshape(self.samples.shape[0], -1)
        out = np.empty(cols.shape[1])
        flags = ()
        for j, d in enumerate(self.tables):
            val = np.nan
            if d is not None:
                val = _dehoog_eval(d, z)
                val = pref * val.real if np.isfinite(val) else np.nan
            if not np.isfinite(val):
                val = float(_dehoog_direct(cols[:, j], t, params))
                flags = (FLAG_QD_FALLBACK,)
            out[j] = val
        if self.scalar:
            return float(out[0]), flags
        return out.reshape(self.samples.shape[1:]), flags

