"""``invert_all`` one plan group at a time.

Test-suite-only oracle for ``invlap.core.invert_all``, which gathers
every group's samples into one stack and inverts the whole plan in one
pass per method.  Here each group is inverted on its own: its samples
are taken out of the plan, a per-method ``prepare(samples, params)``
returns the group's inversion t -> (value, flags), and every time of the
group is inverted through it.  A group with a non-finite sample inverts
to a flagged NaN at every time.

The per-time inverters are the one-group bodies the library had before
it inverted whole plans, so this module runs none of the batched code.
It shares with the library only the pieces that depend on parameters
alone or on one group's samples: Stehfest weights, the Schapery
collocation factor and ``schapery_eval``, the Weeks kernel and
coefficients, the Talbot nodes, and de Hoog's quotient-difference table
(``_qd_coefficients``, called per group), continued fraction and direct
sum.  Both sides look these up in ``invlap.algorithms`` at call time, so
a test that patches one patches both.
"""

import math

import numpy as np
from numpy.polynomial.laguerre import lagval
from scipy.linalg.lapack import dsytrs

from invlap import algorithms as alg
from invlap.core import PlanMismatchError, TimeSeriesResult


def _flagged_nan(shape: tuple, flag: str):
    """(NaN of the given channel shape, (flag,)) for a time that cannot invert."""
    return (np.full(shape, np.nan) if shape else math.nan), (flag,)


def _require_real(samples, what: str) -> np.ndarray:
    v = np.asarray(samples, dtype=complex)
    scale = np.max(np.abs(v)) or 1.0
    if np.max(np.abs(v.imag)) > alg._REAL_SAMPLE_IMAG_RTOL * scale:
        raise ValueError(f"{what} expects real-valued samples; "
                         f"imaginary parts exceed {alg._REAL_SAMPLE_IMAG_RTOL:g} relative")
    return v.real


def stehfest_invert(samples, t: float, params):
    vals = _require_real(samples, "stehfest_invert")
    if vals.shape[0] != params.n_terms:
        raise ValueError(f"expected {params.n_terms} samples, got {vals.shape[0]}")
    w = alg.stehfest_weights(params.n_terms, allow_large=params.allow_large)
    return (alg.LN2 / t) * np.tensordot(w, vals, axes=(0, 0))


def schapery_fit(samples, params):
    p = np.asarray(params.nodes, dtype=float)
    vals = _require_real(samples, "schapery_fit")
    if vals.shape[0] != p.size:
        raise ValueError(f"expected {p.size} samples, got {vals.shape[0]}")
    if params.f_s is None:
        f_s = p[0] * vals[0]
    else:
        f_s = np.asarray(params.f_s, dtype=float)
    lu, ipiv, info, cond = alg._collocation(params.nodes)
    rhs = vals - np.multiply.outer(1.0 / p, f_s) if vals.ndim > 1 else vals - f_s / p
    if not np.all(np.isfinite(rhs)):
        raise ValueError("schapery_fit expects finite samples")
    if info > 0:
        raise alg.SingularFitError(
            f"Schapery collocation matrix is singular (cond ~ {cond:.3e})")
    a = np.ascontiguousarray(dsytrs(lu, ipiv, rhs)[0])
    if not np.all(np.isfinite(a)):
        raise alg.SingularFitError(
            f"Schapery collocation solve produced non-finite coefficients "
            f"(cond ~ {cond:.3e})")
    return alg.SchaperyFit(coefficients=a, nodes=p, f_s=np.asarray(f_s), condition=cond)


def weeks_eval(a, params, t: float):
    exponent = (params.kappa - params.b / 2.0) * t
    if exponent > alg._EXP_LIMIT:
        return _flagged_nan(np.shape(a)[1:], alg.FLAG_EXP_OVERFLOW)
    total = lagval(params.b * t, np.asarray(a, dtype=float))
    return math.exp(exponent) * (float(total) if np.ndim(a) == 1 else total), ()


def talbot_invert(samples, t: float, params):
    vals = np.asarray(samples, dtype=complex)
    n = params.n_nodes
    if vals.shape[0] != n:
        raise ValueError(f"expected {n} samples, got {vals.shape[0]}")
    r = params.r
    if r * t > alg._EXP_LIMIT:
        return _flagged_nan(vals.shape[1:], alg.FLAG_EXP_OVERFLOW)
    if not np.all(np.isfinite(vals)):
        return _flagged_nan(vals.shape[1:], alg.FLAG_NONFINITE_SAMPLES)
    p, w = alg._talbot_nodes(r, n)
    w = w[(...,) + (None,) * (vals.ndim - 1)]
    ep = np.exp(t * p)[(...,) + (None,) * (vals.ndim - 1)]
    terms = ep * vals[1:] * w
    head = 0.5 * math.exp(r * t) * vals[0]
    total = (r / n) * (head + terms.sum(axis=0)).real
    peak = max(float(np.max(np.abs(terms))), float(np.max(np.abs(head))))
    tail = float(np.max(np.abs(terms[-1])))
    flags = ()
    if peak > 0 and tail > alg.TALBOT_TAIL_RATIO * peak:
        flags = (alg.FLAG_TALBOT_TAIL,)
    return total, flags


class DeHoogTable:
    def __init__(self, samples, params):
        vals = np.asarray(samples, dtype=complex)
        expected = 2 * params.m_half + 1
        if vals.shape[0] != expected:
            raise ValueError(f"expected {expected} samples, got {vals.shape[0]}")
        self.params = params
        self.samples = vals
        self.scalar = vals.ndim == 1
        d = alg._qd_coefficients(vals.reshape(vals.shape[0], -1))
        self.tables = [col.tolist() if np.all(np.isfinite(col)) else None for col in d.T]

    def evaluate(self, t: float):
        params = self.params
        if params.gamma0 * t > alg._EXP_LIMIT:
            return _flagged_nan(self.samples.shape[1:], alg.FLAG_EXP_OVERFLOW)
        z = np.exp(1j * np.pi * t / params.big_t)
        pref = math.exp(params.gamma0 * t) / params.big_t
        cols = self.samples.reshape(self.samples.shape[0], -1)
        out = np.empty(cols.shape[1])
        flags = ()
        for j, d in enumerate(self.tables):
            val = np.nan
            if d is not None:
                val = alg._dehoog_eval(d, z)
                val = pref * val.real if np.isfinite(val) else np.nan
            if not np.isfinite(val):
                val = float(alg._dehoog_direct(cols[:, j], t, params))
                flags = (alg.FLAG_QD_FALLBACK,)
            out[j] = val
        if self.scalar:
            return float(out[0]), flags
        return out.reshape(self.samples.shape[1:]), flags


def _prepare_schapery(samples, params):
    fit = schapery_fit(samples, params)
    return lambda t: (alg.schapery_eval(fit, t), ())


def _prepare_weeks(samples, params):
    coeffs = alg.weeks_coefficients(samples, params)
    return lambda t: weeks_eval(coeffs, params, t)


PREPARE = {
    "stehfest": lambda v, params: lambda t: (stehfest_invert(v, t, params), ()),
    "schapery": _prepare_schapery,
    "weeks": _prepare_weeks,
    "talbot": lambda v, params: lambda t: talbot_invert(v, t, params),
    "dehoog": lambda v, params: DeHoogTable(v, params).evaluate,
}


def _prepare_nonfinite(samples, params):
    """A group with a non-finite sample inverts to a flagged NaN at every t."""
    nan = np.full(samples.shape[1:], np.nan)
    return lambda t: (nan, (alg.FLAG_NONFINITE_SAMPLES,))


def invert_all(method: str, samples, grid) -> TimeSeriesResult:
    plan = samples.plan
    if plan.method != method:
        raise PlanMismatchError(f"samples were planned for {plan.method!r}, not {method!r}")
    if not np.array_equal(plan.grid.times, grid.times):
        raise PlanMismatchError("samples were planned for a different time grid")

    times = grid.times
    n_t = times.size
    out_values = None
    out_flags: list = [()] * n_t

    for group in plan.groups:
        vals = samples.values[group.node_indices]
        prepare = PREPARE[method] if np.all(np.isfinite(vals)) else _prepare_nonfinite
        evaluate = prepare(vals, group.params)
        for ti in group.time_indices:
            value, tflags = evaluate(float(times[ti]))
            if out_values is None:
                out_values = np.empty((n_t,) + np.shape(value))
            out_values[ti] = value
            out_flags[ti] = tuple(tflags)

    return TimeSeriesResult(method=method, times=times, values=out_values,
                            flags=tuple(out_flags))
