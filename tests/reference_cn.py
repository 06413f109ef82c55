"""The Crank-Nicolson march as one tridiagonal solve per step.

Test-suite-only oracle.  It evaluates the boundary data one step at a time
inside the loop, solves each step with LAPACK's LU-factorized tridiagonal
routines and keeps the whole nodal state.  ``invlap.oracles.crank_nicolson_1d``
marches the same scheme as scalar recurrences over sine modes, summed in
another order, so the two agree to rounding on every input this one
handles correctly (1-D, strictly increasing output times); the bound is
stated in ``tests/test_oracles.py``.
"""

import math

import numpy as np
import scipy.linalg

from invlap.core import TimeGrid
from invlap.oracles import BENCH_AMPLITUDE, BENCH_LENGTH, FdResult, TimeBehavior


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

    return FdResult(times=t_out, potential=out_pot, flux=out_flux)
