"""Ground-truth references: transform pairs, the 1D benchmark solutions,
and a Crank-Nicolson time-marching check.

The shipped benchmark (a 3 x 2 rectangle, potential -2 and +2 at the short
ends, insulated long sides) is one-dimensional in disguise, so closed-form
Laplace-space and eigenfunction-series solutions of the equivalent 1D
problem serve as independent references for both the inversion algorithms
and the 2D boundary element solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import TimeGrid

#: Domain length and boundary data of the benchmark problem.
BENCH_LENGTH = 3.0
BENCH_MID = 1.5
BENCH_AMPLITUDE = 2.0

#: Steady potential profile of the benchmark: (4/3) x - 2.
STEADY_SLOPE = 2.0 * BENCH_AMPLITUDE / BENCH_LENGTH


@dataclass(frozen=True)
class TimeBehavior:
    """A time signal and its Laplace image: a boundary-condition behavior
    or a transform pair of :func:`pair_catalog`.

    Every image converges for Re p > 0; tau > 0 is a dead time, with the
    signal jumping at t = tau.
    """

    name: str
    image: callable
    time_function: callable
    tau: float = 0.0

    def __call__(self, t):
        return self.time_function(t)


def _heaviside_image(p):
    return 1.0 / p


def _heaviside_time(t):
    t = np.asarray(t, dtype=float)
    return np.where(t > 0, 1.0, np.where(t == 0, 0.5, 0.0))


def _cosine4_image(p):
    return p / (p * p + 16.0)


def _cosine4_time(t):
    return np.cos(4.0 * np.asarray(t, dtype=float))


DELAY_TAU = 0.08


def _delayed_image(p):
    return np.exp(-DELAY_TAU * p) / p


def _delayed_time(t):
    t = np.asarray(t, dtype=float)
    return np.where(t > DELAY_TAU, 1.0, np.where(t == DELAY_TAU, 0.5, 0.0))


HEAVISIDE = TimeBehavior("heaviside", _heaviside_image, _heaviside_time)
COSINE4T = TimeBehavior("cosine4t", _cosine4_image, _cosine4_time)
DELAYED_STEP = TimeBehavior("delayed-step", _delayed_image, _delayed_time,
                            tau=DELAY_TAU)

BEHAVIORS = {b.name: b for b in (HEAVISIDE, COSINE4T, DELAYED_STEP)}


def pair_catalog() -> tuple:
    """Transform pairs used to exercise the inverters without any PDE error.

    Each pair is a :class:`TimeBehavior`, named after its image.  The jump
    of the delayed step takes the Fourier midpoint value 1/2 at t = tau,
    consistent with trapezoid-contour limits.
    """
    return (
        TimeBehavior("1/p", lambda p: 1.0 / p,
                     lambda t: np.ones_like(np.asarray(t, dtype=float))),
        TimeBehavior("1/p^2", lambda p: 1.0 / (p * p),
                     lambda t: np.asarray(t, dtype=float)),
        TimeBehavior("1/(p+1)", lambda p: 1.0 / (p + 1.0),
                     lambda t: np.exp(-np.asarray(t, dtype=float))),
        TimeBehavior("1/(p^2+1)", lambda p: 1.0 / (p * p + 1.0),
                     lambda t: np.sin(np.asarray(t, dtype=float))),
        TimeBehavior("p/(p^2+16)", _cosine4_image, _cosine4_time),
        TimeBehavior("exp(-0.08p)/p", _delayed_image, _delayed_time, tau=DELAY_TAU),
    )


def _sinh_ratio(a: float, q: complex) -> complex:
    """2 sinh(q a) / sinh(q B), B = 1.5, computed overflow-free for large q."""
    b = BENCH_MID
    sgn = 1.0 if a >= 0 else -1.0
    aa = abs(a)
    # exp-scaled form; Re(q) > 0 keeps both exponentials bounded
    num = 1.0 - np.exp(-2.0 * q * aa)
    den = 1.0 - np.exp(-2.0 * q * b)
    return sgn * 2.0 * np.exp(q * (aa - b)) * num / den


def _cosh_ratio(a: float, q: complex) -> complex:
    """2 q cosh(q a) / sinh(q B), stable companion for the flux."""
    b = BENCH_MID
    aa = abs(a)
    num = 1.0 + np.exp(-2.0 * q * aa)
    den = 1.0 - np.exp(-2.0 * q * b)
    return 2.0 * q * np.exp(q * (aa - b)) * num / den


def benchmark_laplace_1d(x: float, p: complex, behavior: TimeBehavior | None = None) -> complex:
    """Transformed potential of the benchmark at position x.

    phibar(x) = fbar_t(p) * 2 sinh(q (x - 1.5)) / sinh(1.5 q), q = sqrt(p).
    behavior=None returns the bare spatial transfer (fbar_t = 1).
    """
    if not 0.0 <= x <= BENCH_LENGTH:
        raise ValueError(f"x must lie in [0, {BENCH_LENGTH}]")
    p = complex(p)
    if p == 0:
        raise ValueError("p = 0 is singular")
    q = np.sqrt(p)
    val = _sinh_ratio(x - BENCH_MID, q)
    if behavior is not None:
        val = val * behavior.image(p)
    return complex(val)


def benchmark_laplace_1d_flux(x: float, p: complex, behavior: TimeBehavior | None = None) -> complex:
    """Transformed flux -d(phibar)/dx at position x (same sign convention
    as the harness output)."""
    if not 0.0 <= x <= BENCH_LENGTH:
        raise ValueError(f"x must lie in [0, {BENCH_LENGTH}]")
    p = complex(p)
    if p == 0:
        raise ValueError("p = 0 is singular")
    q = np.sqrt(p)
    val = -_cosh_ratio(x - BENCH_MID, q)
    if behavior is not None:
        val = val * behavior.image(p)
    return complex(val)


@dataclass(frozen=True)
class SeriesValue:
    """Eigenfunction-series evaluation with its truncation bound."""

    potential: float
    flux: float
    bound: float
    truncated: bool


#: Default tolerance on the series truncation bound before flagging.
SERIES_BOUND_TOL = 1e-9


def benchmark_time_series_1d(x: float, t: float, behavior: TimeBehavior,
                             n_terms: int = 200) -> SeriesValue:
    """Eigenfunction series for the benchmark potential and flux at (x, t).

    phi(x, t) = (4/3) x - 2 + sum_m (4 / m pi) sin(2 m pi x / 3)
                exp(-(2 m pi / 3)^2 t);
    the flux is -d(phi)/dx.  The delayed step is the Heaviside solution
    shifted by tau (exactly zero before the delay).  Only step-type
    behaviors have this closed form.
    """
    if behavior.name == COSINE4T.name:
        raise ValueError("no series solution for the oscillatory behavior; "
                         "use the finite difference reference")
    if t < 0:
        raise ValueError("t must be nonnegative")
    te = t - behavior.tau
    if te <= 0:
        return SeriesValue(0.0, 0.0, 0.0, False)
    m = np.arange(1, n_terms + 1)
    lam = (2.0 * m * np.pi / BENCH_LENGTH) ** 2
    decay = np.exp(-lam * te)
    sines = np.sin(2.0 * m * np.pi * x / BENCH_LENGTH)
    cosines = np.cos(2.0 * m * np.pi * x / BENCH_LENGTH)
    coeff = 4.0 / (m * np.pi)
    pot = STEADY_SLOPE * x - BENCH_AMPLITUDE + float(np.sum(coeff * sines * decay))
    flux = -STEADY_SLOPE - (8.0 / BENCH_LENGTH) * float(np.sum(cosines * decay))
    # next-term bound with a geometric tail estimate; the flux series has
    # the larger terms so it controls
    lam_next = (2.0 * (n_terms + 1) * np.pi / BENCH_LENGTH) ** 2
    gap = math.exp(-(lam_next - (2.0 * n_terms * np.pi / BENCH_LENGTH) ** 2) * te)
    tail = (8.0 / BENCH_LENGTH) * math.exp(-lam_next * te)
    bound = tail / max(1.0 - gap, 1e-3)
    return SeriesValue(pot, flux, bound, bound > SERIES_BOUND_TOL)


@dataclass(frozen=True)
class FdResult:
    """Time-marched reference sampled at the observation point."""

    times: np.ndarray
    potential: np.ndarray
    flux: np.ndarray
    nx: int
    dt: float


def crank_nicolson_1d(x_obs: float, times, behavior: TimeBehavior,
                      nx: int = 300, dt: float = 1e-3,
                      alpha: float = 1.0) -> FdResult:
    """Second-order time march of the 1D benchmark diffusion problem.

    Crank-Nicolson with two backward-Euler half-steps after each boundary
    jump (start, and the delay time if any) to damp the scheme's
    oscillatory response to discontinuous data.  The observation point is
    sampled by linear interpolation in x and t; the flux -d(phi)/dx uses
    centered differences.
    """
    t_out = times.times if isinstance(times, TimeGrid) else np.asarray(times, dtype=float)
    if not 0.0 <= x_obs <= BENCH_LENGTH:
        raise ValueError(f"x_obs must lie in [0, {BENCH_LENGTH}]")
    if nx < 16:
        raise ValueError("nx must be >= 16")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > t_out[0]:
        raise ValueError("dt exceeds the first output time")

    h = BENCH_LENGTH / nx
    x = np.linspace(0.0, BENCH_LENGTH, nx + 1)
    mu = alpha * dt / (h * h)
    # LAPACK's tridiagonal routines pass NaN and inf through unchecked
    if not math.isfinite(mu):
        raise ValueError(f"alpha must be finite, got {alpha!r}")

    def bc(tv: float):
        f = float(behavior.time_function(tv))
        if not math.isfinite(f):
            raise ValueError(f"boundary value of {behavior.name!r} is not finite at t = {tv!r}")
        return -BENCH_AMPLITUDE * f, BENCH_AMPLITUDE * f

    # Crank-Nicolson and the backward-Euler half-step share the same
    # implicit operator I - (dt/2) alpha D2, factorized once
    off = np.full(nx - 2, -0.5 * mu)
    *lu, info = scipy.linalg.lapack.dgttrf(off, np.full(nx - 1, 1.0 + mu), off)
    if info != 0:
        raise np.linalg.LinAlgError(f"Crank-Nicolson operator is singular (dgttrf info {info})")

    def implicit_solve(rhs):
        x, info = scipy.linalg.lapack.dgttrs(*lu, rhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"Crank-Nicolson solve failed (dgttrs info {info})")
        return x

    u = np.zeros(nx + 1)
    restart_times = [0.0]
    if behavior.tau > 0:
        restart_times.append(behavior.tau)

    t_now = 0.0
    out_pot = np.empty(t_out.size)
    out_flux = np.empty(t_out.size)
    prev_t, prev_u = t_now, u.copy()

    def sample(u_arr, xq):
        i = min(int(xq / h), nx - 1)
        w = (xq - x[i]) / h
        pot = (1 - w) * u_arr[i] + w * u_arr[i + 1]
        du = np.empty(nx + 1)
        du[1:-1] = (u_arr[2:] - u_arr[:-2]) / (2 * h)
        du[0] = (u_arr[1] - u_arr[0]) / h
        du[-1] = (u_arr[-1] - u_arr[-2]) / h
        return pot, -((1 - w) * du[i] + w * du[i + 1])

    out_idx = 0
    n_steps = int(math.ceil(t_out[-1] / dt - 1e-12))
    eps = 0.25 * dt
    for step in range(1, n_steps + 1):
        t_next = step * dt
        just_restarted = any(abs(t_now - rt) < eps or (t_now < rt < t_next - eps)
                             for rt in restart_times)
        lo_next, hi_next = bc(t_next)
        if just_restarted:
            # two backward-Euler half-steps damp the step-response ringing
            for frac in (0.5, 1.0):
                tm = t_now + frac * dt
                lo, hi = bc(tm)
                rhs = u[1:-1].copy()
                rhs[0] += 0.5 * mu * lo
                rhs[-1] += 0.5 * mu * hi
                u[1:-1] = implicit_solve(rhs)
                u[0], u[-1] = lo, hi
        else:
            rhs = u[1:-1] + 0.5 * mu * (u[2:] - 2 * u[1:-1] + u[:-2])
            rhs[0] += 0.5 * mu * lo_next
            rhs[-1] += 0.5 * mu * hi_next
            u[1:-1] = implicit_solve(rhs)
            u[0], u[-1] = lo_next, hi_next
        prev_t, t_now = t_now, t_next
        while out_idx < t_out.size and t_out[out_idx] <= t_now + 1e-12:
            tq = t_out[out_idx]
            w = np.clip((tq - prev_t) / dt, 0.0, 1.0)
            p0, f0 = sample(prev_u, x_obs)
            p1, f1 = sample(u, x_obs)
            out_pot[out_idx] = (1 - w) * p0 + w * p1
            out_flux[out_idx] = (1 - w) * f0 + w * f1
            out_idx += 1
        prev_u = u.copy()

    return FdResult(times=t_out, potential=out_pot, flux=out_flux, nx=nx, dt=dt)
