"""The five inverse Laplace transform algorithms.

Each algorithm is split into the pieces a sample-reusing driver needs:
parameter containers with rule-of-thumb constructors, node generators
(where the node layout is the algorithm's own), and inverters that map a
vector of image-function samples to time-domain values.

All inverters are pure functions of (samples, parameters, t).  Numerical
failure of a single output time is reported through returned flag strings
rather than exceptions, so a sweep over many times survives partial
breakdown (a deformed-contour overflow, say) without aborting.

Each method inverts a whole sample plan in one call of its batch form,
``<method>_batch(samples, params, times)``: samples is a ``(groups,
nodes, *channels)`` stack, params and times hold one parameter set and
one array of output times per group, and the result is the values,
shaped ``(times, *channels)`` in group order, and one flag tuple per
time.  Each group's samples stay one contiguous ``(nodes, *channels)``
block, so a per-group product rounds as it does for that group alone.
The one-time inverters are the one-group case of the batch forms.
"""

from __future__ import annotations

import math
import operator
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

#: Most (group, time) pairs one array step of a batch inverter sums; a
#: longer grid goes in chunks, so scratch memory stays bounded by the
#: chunk, not the grid.  Each pair rounds the same in any chunk.
_PAIR_CHUNK = 1024

FLAG_TALBOT_TAIL = "talbot-tail"
FLAG_NONFINITE_SAMPLES = "nonfinite-samples"
FLAG_QD_FALLBACK = "qd-fallback"
FLAG_EXP_OVERFLOW = "exp-overflow"


class SingularFitError(RuntimeError):
    """Raised when an exponential-fit collocation matrix cannot be solved."""


def _one_time(batch, samples, params, t: float):
    """(value, flags) at time t of one sample vector, by a batch inverter."""
    values, flags = batch(np.asarray(samples, dtype=complex)[None], (params,),
                          (np.array([t], dtype=float),))
    return values[0], flags[0]


def _check_count(samples: np.ndarray, expected: int):
    """Raise unless a (groups, nodes, ...) stack has `expected` nodes."""
    if samples.shape[1] != expected:
        raise ValueError(f"expected {expected} samples, got {samples.shape[1]}")


def _pairs(times) -> tuple:
    """Group index and time of every (group, time) pair, in group order."""
    return np.repeat(np.arange(len(times)), [ts.size for ts in times]), np.concatenate(times)


def _chunks(idx: np.ndarray):
    """Consecutive pieces of at most _PAIR_CHUNK entries of an index array."""
    return (idx[i:i + _PAIR_CHUNK] for i in range(0, idx.size, _PAIR_CHUNK))


def _dot_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over a's last axis and b's first: np.tensordot(a, b, axes=(-1,
    0)) for a of one or two axes, as the same np.dot call on b's
    (nodes, channels) view, without tensordot's checks."""
    return np.dot(a, b.reshape(b.shape[0], -1)).reshape(a.shape[:-1] + b.shape[1:])


def _integer(name: str, value) -> int:
    """value as an int, a numpy integer too; a ValueError for anything
    else, such as a float order, which would plan a fractional count."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


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
        _integer("Stehfest order n_terms", self.n_terms)
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
        _integer("Weeks order n_coeffs", self.n_coeffs)
        _integer("Weeks midpoint half-count m_half", self.m_half)
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
        if _integer("Talbot node count n_nodes", self.n_nodes) < 2:
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
        if _integer("de Hoog order m_half", self.m_half) < 1:
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
    """Real parts of a (groups, nodes, *channels) stack; raises when a
    group's imaginary parts exceed _REAL_SAMPLE_IMAG_RTOL of its largest
    modulus."""
    v = np.asarray(samples, dtype=complex)
    if not v.imag.any():
        return v.real
    axes = tuple(range(1, v.ndim))
    scale = np.max(np.abs(v), axis=axes)
    scale[scale == 0] = 1.0
    if np.any(np.max(np.abs(v.imag), axis=axes) > _REAL_SAMPLE_IMAG_RTOL * scale):
        raise ValueError(f"{what} expects real-valued samples; "
                         f"imaginary parts exceed {_REAL_SAMPLE_IMAG_RTOL:g} relative")
    return v.real


def stehfest_batch(samples, params, times) -> tuple:
    """(ln2/t) sum V_k fbar(k ln2/t) for every group of a sample stack.

    One weighted sum per group: stacking the groups into one product sums
    in another order, which weights of 1e6-1e9 amplify.  Each group's
    real parts stay a strided view of the complex stack, as they are for
    a group on its own: a contiguous copy rounds differently too.
    """
    vals = _require_real(samples, "stehfest_invert")
    values = []
    for v, par, ts in zip(vals, params, times):
        _check_count(vals, par.n_terms)
        w = stehfest_weights(par.n_terms, allow_large=par.allow_large)
        values.append(np.multiply.outer(LN2 / ts, _dot_first(w, v)))
    values = np.concatenate(values)
    return values, [()] * len(values)


def stehfest_invert(samples, t: float, params: StehfestParams):
    """(ln2/t) sum V_k fbar(k ln2/t).

    samples holds fbar at the nodes of :func:`stehfest_nodes` in order;
    a trailing axis inverts several image channels at once.
    """
    return _one_time(stehfest_batch, samples, params, t)[0]


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


def _schapery_fits(samples, params) -> list:
    """One :class:`SchaperyFit` per group of a (groups, nodes, *channels)
    stack; see :func:`schapery_fit`."""
    vals = _require_real(samples, "schapery_fit")
    for par in params:
        _check_count(vals, len(par.nodes))
    p = np.array([par.nodes for par in params])
    channels = (None,) * (vals.ndim - 2)
    # f_s per group: the final-value estimate from the smallest node, or fixed
    f_s = p[(slice(None), 0, *channels)] * vals[:, 0]
    for g, par in enumerate(params):
        if par.f_s is not None:
            f_s[g] = par.f_s
    if channels:
        rhs = vals - (1.0 / p)[(..., *channels)] * f_s[:, None]
    else:
        rhs = vals - f_s[:, None] / p
    if not np.all(np.isfinite(rhs)):
        raise ValueError("schapery_fit expects finite samples")
    fits = []
    for p_g, f_g, rhs_g, par in zip(p, f_s, rhs, params):
        lu, ipiv, info, cond = _collocation(par.nodes)
        if info > 0:
            raise SingularFitError(
                f"Schapery collocation matrix is singular (cond ~ {cond:.3e})")
        # dsytrs returns channels in Fortran order; schapery_eval's product
        # sums a C-ordered array in another order, which moves its last bits
        a = np.ascontiguousarray(dsytrs(lu, ipiv, rhs_g)[0])
        if not np.all(np.isfinite(a)):
            raise SingularFitError(
                f"Schapery collocation solve produced non-finite coefficients "
                f"(cond ~ {cond:.3e})"
            )
        fits.append(SchaperyFit(coefficients=a, nodes=p_g, f_s=np.asarray(f_g), condition=cond))
    return fits


def schapery_fit(samples, params: SchaperyParams) -> SchaperyFit:
    """Solve the symmetric collocation system P a = fbar(p_j) - f_s/p_j.

    P_ij = 1/(p_i + p_j) depends only on the nodes, so it is factored
    once per node ladder and each fit is one back-substitution.  The
    system is dense and can be very ill conditioned for long geometric
    ladders; the 2-norm condition estimate is recorded on the result.
    A fixed f_s applies to every channel.  Non-finite samples raise
    ValueError; a singular factor or non-finite coefficients raise
    :class:`SingularFitError`.
    """
    return _schapery_fits(np.asarray(samples, dtype=complex)[None], (params,))[0]


def schapery_eval(fit: SchaperyFit, t: float):
    """f_s + sum a_i exp(-p_i t)."""
    decay = np.exp(-fit.nodes * t)
    return fit.f_s + _dot_first(decay, fit.coefficients)


def schapery_batch(samples, params, times) -> tuple:
    """Fit every group of a sample stack and evaluate each fit at its
    group's times, one product per time."""
    fits = _schapery_fits(samples, params)
    values = np.array([schapery_eval(fit, t)
                       for fit, ts in zip(fits, times) for t in ts.tolist()])
    return values, [()] * len(values)


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
    return _dot_first(kernel, psi).real / params.m_half


def _weeks_values(coeffs: list, params, times) -> tuple:
    """e^{(kappa - b/2) t} sum a_n L_n(b t) at every group's times, in
    Clenshaw sums over chunks of pairs; a time whose exponential
    overflows is a flagged NaN."""
    gi, t = _pairs(times)
    exponent = np.array([par.kappa - par.b / 2.0 for par in params])[gi] * t
    ok = ~(exponent > _EXP_LIMIT)
    a = np.stack(coeffs, axis=1)
    x = np.array([par.b for par in params])[gi] * t
    channels = (None,) * (a.ndim - 2)
    values = np.full(t.shape + a.shape[2:], np.nan)
    for idx in _chunks(np.flatnonzero(ok)):
        growth = np.array([math.exp(e) for e in exponent[idx].tolist()])
        values[idx] = growth[(..., *channels)] * laguerre_sum(a[:, gi[idx]],
                                                              x[idx][(..., *channels)])
    return values, [() if o else (FLAG_EXP_OVERFLOW,) for o in ok.tolist()]


def weeks_batch(samples, params, times) -> tuple:
    """Weeks coefficients of every group of a sample stack, one product
    per group, summed at each group's times."""
    coeffs = [weeks_coefficients(v, par) for v, par in zip(samples, params)]
    return _weeks_values(coeffs, params, times)


def weeks_eval(a, params: WeeksParams, t: float):
    """e^{(kappa - b/2) t} sum a_n L_n(b t) via Clenshaw; flags overflow."""
    values, flags = _weeks_values([np.asarray(a, dtype=float)], (params,),
                                  (np.array([t], dtype=float),))
    return values[0], flags[0]


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


def talbot_batch(samples, params, times) -> tuple:
    """Quadrature sums along each group's deformed contour at its times.

    The (group, time) pairs are summed in array steps of up to
    _PAIR_CHUNK pairs.  A sum is flagged when r t overflows exp, when
    its group has a non-finite sample, or when its last term has not
    decayed relative to the largest one, which happens whenever the
    image grows too fast as Re p -> -infinity for the requested t
    (delayed time behaviors).
    """
    vals = np.asarray(samples, dtype=complex)
    for par in params:
        _check_count(vals, par.n_nodes)
    gi, t = _pairs(times)
    r = np.array([par.r for par in params])[gi]
    overflow = r * t > _EXP_LIMIT
    finite = np.isfinite(vals).reshape(len(params), -1).all(axis=1)[gi]
    nodes = [_talbot_nodes(par.r, par.n_nodes) for par in params]
    p = np.stack([p_g for p_g, _ in nodes])
    w = np.stack([w_g for _, w_g in nodes])
    channels = (None,) * (vals.ndim - 2)
    axes = tuple(range(1, vals.ndim - 1))  # the channel axes of a pair's value

    values = np.full(gi.shape + vals.shape[2:], np.nan)
    flags = [(FLAG_EXP_OVERFLOW,) if o else (FLAG_NONFINITE_SAMPLES,) for o in overflow.tolist()]
    for idx in _chunks(np.flatnonzero(~overflow & finite)):
        g, tc, rc = gi[idx], t[idx], r[idx]
        v = vals[g]
        terms = np.exp(tc[:, None] * p[g])[(..., *channels)] * v[:, 1:] * w[g][(..., *channels)]
        growth = np.array([math.exp(x) for x in (rc * tc).tolist()])
        head = (0.5 * growth)[(..., *channels)] * v[:, 0]
        values[idx] = (rc / vals.shape[1])[(..., *channels)] * (head + terms.sum(axis=1)).real
        size = np.abs(terms)
        peak = np.maximum(size.max(axis=(1, *(a + 1 for a in axes))), np.abs(head).max(axis=axes))
        tail = size[:, -1].max(axis=axes)
        stalled = (peak > 0) & (tail > TALBOT_TAIL_RATIO * peak)
        for i, bad in zip(idx.tolist(), stalled.tolist()):
            flags[i] = (FLAG_TALBOT_TAIL,) if bad else ()
    return values, flags


def talbot_invert(samples, t: float, params: TalbotParams):
    """Quadrature sum along the deformed contour, with tail-convergence guard.

    Returns (value, flags); see :func:`talbot_batch` for the flags.
    """
    return _one_time(talbot_batch, samples, params, t)


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

    For gamma0 t up to the exp limit; :func:`_dehoog_at` flags larger
    ones before reaching here.
    """
    k = np.arange(a.shape[0])
    phase = np.exp(1j * k * np.pi * t / params.big_t)
    w = np.ones(a.shape[0])
    w[0] = 0.5
    ww = (w * phase)[(...,) + (None,) * (a.ndim - 1)]
    return math.exp(params.gamma0 * t) / params.big_t * (ww * a).sum(axis=0).real


def _finite_tables(d: np.ndarray) -> list:
    """Each column of a qd coefficient array as a list, or None where the
    table broke down."""
    return [col.tolist() if np.all(np.isfinite(col)) else None for col in d.T]


def _dehoog_at(tables: list, cols: np.ndarray, params: DeHoogParams, t: float):
    """(values, flags) at t of the tables of the sample columns `cols`.

    A column whose table broke down, or whose continued fraction is not
    finite, falls back to the direct trapezoid sum with a diagnostic
    flag; a t whose exp(gamma0 t) overflows gives NaN with an
    exp-overflow flag.
    """
    if params.gamma0 * t > _EXP_LIMIT:
        return np.full(cols.shape[1], np.nan), (FLAG_EXP_OVERFLOW,)
    z = np.exp(1j * np.pi * t / params.big_t)
    pref = math.exp(params.gamma0 * t) / params.big_t
    out = np.empty(cols.shape[1])
    flags = ()
    for j, d in enumerate(tables):
        val = np.nan
        if d is not None:
            val = _dehoog_eval(d, z)
            val = pref * val.real if np.isfinite(val) else np.nan
        if not np.isfinite(val):
            val = float(_dehoog_direct(cols[:, j], t, params))
            flags = (FLAG_QD_FALLBACK,)
        out[j] = val
    return out, flags


def dehoog_batch(samples, params, times) -> tuple:
    """De Hoog's accelerated series for every group of a sample stack.

    One quotient-difference pass builds the tables of every group and
    channel, since the rhombus rules run over columns; the continued
    fraction is evaluated per time.
    """
    vals = np.asarray(samples, dtype=complex)
    for par in params:
        _check_count(vals, 2 * par.m_half + 1)
    cols = vals.reshape(vals.shape[:2] + (-1,))
    k = cols.shape[2]
    tables = _finite_tables(_qd_coefficients(np.concatenate(cols, axis=1)))
    values, flags = [], []
    for g, (par, ts) in enumerate(zip(params, times)):
        for t in ts.tolist():
            value, tflags = _dehoog_at(tables[g * k:(g + 1) * k], cols[g], par, t)
            values.append(value)
            flags.append(tflags)
    return np.array(values).reshape((-1,) + vals.shape[2:]), flags


def dehoog_invert(samples, t: float, params: DeHoogParams):
    """Accelerated Fourier series at t of fbar sampled at :func:`dehoog_nodes`.

    Returns (value, flags); see :func:`_dehoog_at` for the flags.  Every
    time of a shared-sample sweep inverts from one quotient-difference
    table in one :func:`dehoog_batch` call.
    """
    return _one_time(dehoog_batch, samples, params, t)
