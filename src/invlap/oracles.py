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

from .algorithms import _EXP_LIMIT
from .bem import BENCH_AMPLITUDE, BENCH_LENGTH
from .core import TimeGrid

#: Centre of the rod, where the benchmark potential is zero.
BENCH_MID = BENCH_LENGTH / 2

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
    z = -DELAY_TAU * p
    if z.real < _EXP_LIMIT:
        return np.exp(z) / p
    # Talbot's far-left nodes overflow exp(z), and invert_all flags that
    # sample; errstate costs thrice the image, so only these p take it
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(z) / p


def _delayed_time(t):
    t = np.asarray(t, dtype=float)
    return np.where(t > DELAY_TAU, 1.0, np.where(t == DELAY_TAU, 0.5, 0.0))


HEAVISIDE = TimeBehavior("heaviside", _heaviside_image, _heaviside_time)
COSINE4T = TimeBehavior("cosine4t", _cosine4_image, _cosine4_time)
DELAYED_STEP = TimeBehavior("delayed-step", _delayed_image, _delayed_time,
                            tau=DELAY_TAU)

#: The behaviours :func:`benchmark_time_series_1d` solves: the step and
#: the delayed step.
SERIES_BEHAVIORS = (HEAVISIDE, DELAYED_STEP)


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


def _check_x(x: float, name: str = "x") -> None:
    """Raise unless x lies on the rod [0, BENCH_LENGTH]; NaN fails too."""
    if not 0.0 <= x <= BENCH_LENGTH:
        raise ValueError(f"{name} must lie in [0, {BENCH_LENGTH}]")


def _laplace_1d(x: float, p: complex, behavior: TimeBehavior | None) -> tuple:
    """Transformed potential and flux of the benchmark at position x.

    With B = BENCH_MID, A = BENCH_AMPLITUDE, a = |x - B| and q = sqrt(p):
    A sinh(q (x - B)) / sinh(q B) and its -d/dx, -A q cosh(q a) / sinh(q B),
    times fbar_t(p), in an exp-scaled form that Re(q) > 0 keeps bounded.
    """
    _check_x(x)
    p = complex(p)
    if p == 0:
        raise ValueError("p = 0 is singular")
    q = np.sqrt(p)
    amplitude = math.copysign(BENCH_AMPLITUDE, x - BENCH_MID)
    a = abs(x - BENCH_MID)
    decay = np.exp(-2.0 * q * a)
    den = 1.0 - np.exp(-2.0 * q * BENCH_MID)
    scale = np.exp(q * (a - BENCH_MID))
    potential = amplitude * scale * (1.0 - decay) / den
    flux = -(BENCH_AMPLITUDE * q * scale * (1.0 + decay) / den)
    if behavior is not None:
        fbar = behavior.image(p)
        potential, flux = potential * fbar, flux * fbar
    return complex(potential), complex(flux)


def benchmark_laplace_1d(x: float, p: complex, behavior: TimeBehavior | None = None) -> complex:
    """Transformed potential of the benchmark at position x.

    phibar(x) = fbar_t(p) * 2 sinh(q (x - 1.5)) / sinh(1.5 q), q = sqrt(p).
    behavior=None returns the bare spatial transfer (fbar_t = 1).
    """
    return _laplace_1d(x, p, behavior)[0]


def benchmark_laplace_1d_flux(x: float, p: complex, behavior: TimeBehavior | None = None) -> complex:
    """Transformed flux -d(phibar)/dx at position x (same sign convention
    as the harness output)."""
    return _laplace_1d(x, p, behavior)[1]


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

    phi(x, t) = (2A/L) x - A + sum_m (2A / m pi) sin(2 m pi x / L)
                exp(-(2 m pi / L)^2 t)
    with L = BENCH_LENGTH and A = BENCH_AMPLITUDE (3 and 2); the flux is
    -d(phi)/dx.  The delayed step is the Heaviside solution shifted by tau
    (exactly zero before the delay).  Only the behaviours of
    SERIES_BEHAVIORS have this closed form; any other raises ValueError.
    """
    if behavior not in SERIES_BEHAVIORS:
        raise ValueError(f"no series solution for the behavior {behavior.name!r}; "
                         "use the finite difference reference")
    _check_x(x)
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    te = t - behavior.tau
    if te <= 0:
        return SeriesValue(0.0, 0.0, 0.0, False)
    m = np.arange(1, n_terms + 1)
    lam = (2.0 * m * np.pi / BENCH_LENGTH) ** 2
    decay = np.exp(-lam * te)
    sines = np.sin(2.0 * m * np.pi * x / BENCH_LENGTH)
    cosines = np.cos(2.0 * m * np.pi * x / BENCH_LENGTH)
    coeff = 2.0 * BENCH_AMPLITUDE / (m * np.pi)
    pot = STEADY_SLOPE * x - BENCH_AMPLITUDE + float(np.sum(coeff * sines * decay))
    flux = -STEADY_SLOPE - (2.0 * STEADY_SLOPE) * float(np.sum(cosines * decay))
    # next-term bound with a geometric tail estimate; the flux series has
    # the larger terms so it controls
    lam_next = (2.0 * (n_terms + 1) * np.pi / BENCH_LENGTH) ** 2
    gap = math.exp(-(lam_next - (2.0 * n_terms * np.pi / BENCH_LENGTH) ** 2) * te)
    tail = (2.0 * STEADY_SLOPE) * math.exp(-lam_next * te)
    bound = tail / max(1.0 - gap, 1e-3)
    return SeriesValue(pot, flux, bound, bound > SERIES_BOUND_TOL)


@dataclass(frozen=True)
class FdResult:
    """Time-marched reference sampled at the observation point."""

    times: np.ndarray
    potential: np.ndarray
    flux: np.ndarray


#: Steps per block and blocks per chunk of the modal march: one matmul
#: folds a chunk of blocks into per-block sums, and one weighted sum folds
#: those into the modes, so the Python loop runs once per
#: _CN_BLOCK * _CN_CHUNK steps and no per-step state is kept.
_CN_BLOCK = 32
_CN_CHUNK = 32


#: Time step of the Crank-Nicolson reference march; the first output time
#: may not come before it.
CN_DT = 1e-3


def crank_nicolson_1d(x_obs: float, times, behavior: TimeBehavior,
                      nx: int = 300, dt: float = CN_DT) -> FdResult:
    """Second-order time march of the 1D benchmark diffusion problem.

    Crank-Nicolson on nx cells with two backward-Euler half-steps after
    each boundary jump (start, and the delay time if any) to damp the
    scheme's oscillatory response to discontinuous data.  The observation
    point is sampled by linear interpolation in x and t; the flux
    -d(phi)/dx uses centered differences, one-sided at the rod ends.

    The implicit operator I + c T (T the Dirichlet second difference,
    c = dt / 2 h^2) is diagonal in the sine modes sin(j i pi / nx),
    with eigenvalues 4 sin^2(j pi / 2 nx).  The rod ends carry -e and +e,
    which force only the even modes, and the march starts from rest, so
    each even mode follows a scalar recurrence and the odd modes stay
    zero.  Runs of steps between restarts advance in blocks through a
    table of powers of each mode's amplification factor, and only the
    four nodes the sample reads are formed, only at the steps an output
    time needs.  This is the scheme of a tridiagonal solve per step,
    summed in another order: the two agree to rounding.

    ``times`` must be 1-D, finite and strictly increasing.  The behavior's
    time function is called once, on the array of every time the march
    needs boundary data at, so it must accept an array.
    """
    t_out = times.times if isinstance(times, TimeGrid) else np.asarray(times, dtype=float)
    _check_x(x_obs, "x_obs")
    if nx < 16:
        raise ValueError("nx must be >= 16")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if (t_out.ndim != 1 or t_out.size == 0 or not np.all(np.isfinite(t_out))
            or np.any(np.diff(t_out) <= 0)):
        raise ValueError("times must be a non-empty 1-D array of finite, "
                         "strictly increasing values")
    if dt > t_out[0]:
        raise ValueError("dt exceeds the first output time")

    h = BENCH_LENGTH / nx
    c = 0.5 * dt / (h * h)

    # step k marches from t_grid[k] to t_grid[k + 1]; a step that starts
    # at or just before a jump takes the two half-steps instead
    n_steps = int(math.ceil(t_out[-1] / dt - 1e-12))
    t_grid = np.arange(n_steps + 1) * dt
    t_now, t_next = t_grid[:-1], t_grid[1:]
    eps = 0.25 * dt
    restart = np.zeros(n_steps, dtype=bool)
    for rt in (0.0, behavior.tau) if behavior.tau > 0 else (0.0,):
        restart |= (np.abs(t_now - rt) < eps) | ((t_now < rt) & (rt < t_next - eps))
    restarts = np.flatnonzero(restart)

    # boundary data: at every step end, then at both half-step ends of
    # every restart
    t_bc = np.concatenate([t_next, t_now[restarts] + 0.5 * dt, t_now[restarts] + dt])
    f = np.broadcast_to(np.asarray(behavior.time_function(t_bc), dtype=float), t_bc.shape)
    bad = ~np.isfinite(f)
    if bad.any():
        raise ValueError(f"boundary value of {behavior.name!r} is not finite "
                         f"at t = {float(t_bc[bad].min())!r}")
    # the potential e at x = L; x = 0 carries -e
    edge = BENCH_AMPLITUDE * f
    half_steps = {k: (n_steps + i, n_steps + restarts.size + i)
                  for i, k in enumerate(restarts.tolist())}
    # e of the state after each step, and the boundary forcing
    # e_before + e_after of each Crank-Nicolson step
    state_edge = np.concatenate([[0.0], edge[:n_steps]])
    state_edge[restarts + 1] = edge[n_steps + restarts.size:]
    forcing = state_edge[:-1] + edge[:n_steps]

    # the even modes; e projects onto mode j with -(4 / nx) sin(j pi / nx)
    j = np.arange(2, nx, 2)
    c_lam = c * (4.0 * np.sin(j * (0.5 * np.pi / nx)) ** 2)
    # c > 0, so every mode's implicit factor is at least 1
    implicit = 1.0 + c_lam
    # a step is a <- gain a + drive (e_before + e_after), a half-step
    # a <- a / implicit + drive e
    gain = (1.0 - c_lam) / implicit
    drive = -4.0 * c / nx * np.sin(np.minimum(j, nx - j) * (np.pi / nx)) / implicit
    # powers[:, m] = gain^(B - 1 - m); chunk_powers[i] = gain^(B (C - 1 - i))
    powers = gain[:, None] ** np.arange(_CN_BLOCK - 1, -1, -1)
    block_gain = gain ** _CN_BLOCK
    chunk_powers = block_gain ** np.arange(_CN_CHUNK - 1, -1, -1)[:, None]

    def advance(a, y):
        """The modes after one Crank-Nicolson step per forcing value in y."""
        n_blocks, rem = divmod(y.size, _CN_BLOCK)
        for start in range(0, n_blocks, _CN_CHUNK):
            nb = min(_CN_CHUNK, n_blocks - start)
            blocks = y[start * _CN_BLOCK:(start + nb) * _CN_BLOCK].reshape(nb, _CN_BLOCK)
            weights = chunk_powers[_CN_CHUNK - nb:]
            a = (weights[0] * block_gain * a
                 + drive * np.einsum("ij,ij->j", weights, blocks @ powers.T))
        if rem:
            a = (powers[:, _CN_BLOCK - 1 - rem] * a
                 + drive * (powers[:, _CN_BLOCK - rem:] @ y[-rem:]))
        return a

    # output time i is sampled between the states before and after the
    # first step ending at or past it, or the last step, which rounding
    # may end just short of it
    emit = np.minimum(np.searchsorted(t_next + 1e-12, t_out), n_steps - 1)
    needed = np.union1d(emit, emit + 1)
    # the nodes the sample reads, clipped to the rod, as rows of sines plus
    # the multiple of e they carry at the ends
    i_obs = min(int(x_obs / h), nx - 1)
    w_obs = (x_obs - i_obs * h) / h
    nodes = np.clip(np.arange(i_obs - 1, i_obs + 3), 0, nx)
    end_sign = np.where(nodes == 0, -1.0, np.where(nodes == nx, 1.0, 0.0))
    # sin(j i pi / nx) = sin(q pi / nx) with q = j i folded into
    # [-nx/2, nx/2]: unreduced arguments reach nx pi and carry the rounding
    # of pi / nx, which a one-sided flux at a rod end amplifies by 1 / h
    q = (np.outer(nodes, j) + nx) % (2 * nx) - nx
    q = np.where(q > nx / 2, nx - q, np.where(q < -nx / 2, -nx - q, q))
    sines = np.sin(q * (np.pi / nx))

    u = np.empty((needed.size, nodes.size))
    row = {k: i for i, k in enumerate(needed.tolist())}
    a = np.zeros(j.size)
    k = 0
    for stop in np.union1d(needed, restarts).tolist():
        if stop > k:
            a = advance(a, forcing[k:stop])
            k = stop
        if k in row:
            u[row[k]] = sines @ a + end_sign * state_edge[k]
        if k in half_steps:
            # two backward-Euler half-steps damp the step-response ringing
            for m in half_steps[k]:
                a = a / implicit + drive * edge[m]
            k += 1

    slope_lo = ((u[:, 2] - u[:, 1]) / h if i_obs == 0
                else (u[:, 2] - u[:, 0]) / (2 * h))
    slope_hi = ((u[:, 2] - u[:, 1]) / h if i_obs + 1 == nx
                else (u[:, 3] - u[:, 1]) / (2 * h))
    pot = (1 - w_obs) * u[:, 1] + w_obs * u[:, 2]
    flux = -((1 - w_obs) * slope_lo + w_obs * slope_hi)
    before, after = np.searchsorted(needed, emit), np.searchsorted(needed, emit + 1)
    w = np.clip((t_out - t_now[emit]) / dt, 0.0, 1.0)
    out_pot = (1 - w) * pot[before] + w * pot[after]
    out_flux = (1 - w) * flux[before] + w * flux[after]
    return FdResult(times=t_out, potential=out_pot, flux=out_flux)
