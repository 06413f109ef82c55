import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cn
from invlap import oracles
from invlap.core import make_time_grid
from invlap.oracles import (COSINE4T, DELAYED_STEP, HEAVISIDE, benchmark_laplace_1d,
                            benchmark_laplace_1d_flux, benchmark_time_series_1d,
                            crank_nicolson_1d, pair_catalog)


# ---------------------------------------------------------------------------
# analytic pair catalog
# ---------------------------------------------------------------------------

def test_catalog_contents():
    names = {p.name for p in pair_catalog()}
    assert {"1/p", "1/p^2", "1/(p+1)", "1/(p^2+1)", "p/(p^2+16)",
            "exp(-0.08p)/p"} <= names


def test_pair_point_values():
    by_name = {p.name: p for p in pair_catalog()}
    assert by_name["1/p"].time_function(7.0) == pytest.approx(1.0)
    assert by_name["p/(p^2+16)"].time_function(1.0) == pytest.approx(math.cos(4.0))
    # midpoint convention exactly at the jump
    assert by_name["exp(-0.08p)/p"].time_function(0.08) == pytest.approx(0.5)


def test_delayed_image_overflows_without_warning():
    # far left of the plane exp(-0.08 p) overflows; the value is the plain
    # formula's, left non-finite for invert_all to flag, and no
    # RuntimeWarning is raised on the way
    for p in (2.0 + 1.0j, -8000.0 + 1.0j, -8900.0 + 1.0j, -1e5 + 3.0j, -1e5 + 0.0j):
        with np.errstate(all="ignore"):
            want = np.exp(-oracles.DELAY_TAU * p) / p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = DELAYED_STEP.image(p)
        np.testing.assert_array_equal([got.real, got.imag], [want.real, want.imag])
    assert not np.isfinite(DELAYED_STEP.image(-1e5 + 3.0j))


@pytest.mark.parametrize("pair", pair_catalog(), ids=lambda p: p.name)
@pytest.mark.parametrize("p", [1.0, 2.0 + 1.0j, 10.0])
def test_forward_transform_quadrature(pair, p):
    # each catalog pair must satisfy the forward integral to 1e-6 relative
    def integrand_re(t):
        return (pair.time_function(t) * np.exp(-p * t)).real

    def integrand_im(t):
        return (pair.time_function(t) * np.exp(-p * t)).imag

    upper = 60.0 / abs(np.real(p))  # exp(-Re(p) t) < 1e-26 beyond
    points = [pair.tau] if pair.tau > 0 else None
    re, _ = scipy.integrate.quad(integrand_re, 0.0, upper, limit=400, points=points)
    im, _ = scipy.integrate.quad(integrand_im, 0.0, upper, limit=400, points=points)
    got = complex(re, im)
    want = complex(pair.image(p))
    assert abs(got - want) <= 1e-6 * abs(want)


# ---------------------------------------------------------------------------
# transformed 1D benchmark solution
# ---------------------------------------------------------------------------

def test_laplace_antisymmetry_center():
    for p in (0.5, 3.0 + 2.0j):
        assert benchmark_laplace_1d(1.5, p) == 0.0


def test_laplace_boundary_value():
    assert benchmark_laplace_1d(3.0, 2.5, HEAVISIDE) == pytest.approx(2.0 / 2.5)
    assert benchmark_laplace_1d(0.0, 2.5, HEAVISIDE) == pytest.approx(-2.0 / 2.5)


def test_laplace_small_p_steady_profile():
    # p phibar -> steady profile (4/3) x - 2 as p -> 0
    p = 1e-8
    val = p * benchmark_laplace_1d(1.0 / 3.0, p, HEAVISIDE)
    assert val.real == pytest.approx(-14.0 / 9.0, rel=1e-6)


def test_laplace_large_q_stable():
    v = benchmark_laplace_1d(1.0 / 3.0, 1e8)
    assert np.isfinite(v)
    assert abs(v) < 1.0


def test_laplace_flux_consistent_with_difference_quotient():
    p = 2.0 + 1.0j
    x = 0.7
    h = 1e-6
    dphi = (benchmark_laplace_1d(x + h, p) - benchmark_laplace_1d(x - h, p)) / (2 * h)
    assert benchmark_laplace_1d_flux(x, p) == pytest.approx(-dphi, rel=1e-8)


def test_laplace_domain_checks():
    with pytest.raises(ValueError):
        benchmark_laplace_1d(-0.1, 1.0)
    with pytest.raises(ValueError):
        benchmark_laplace_1d(1.0, 0.0)
    # the series would return a plausible potential outside the rod
    for x in (-0.1, 3.5, 5.0, math.nan):
        with pytest.raises(ValueError, match="x must lie"):
            benchmark_time_series_1d(x, 1.0, HEAVISIDE)
    for t in (-1.0, math.nan):
        with pytest.raises(ValueError, match="t must be"):
            benchmark_time_series_1d(1.0, t, HEAVISIDE)


# ---------------------------------------------------------------------------
# eigenfunction series
# ---------------------------------------------------------------------------

def test_series_reaches_steady_state():
    sv = benchmark_time_series_1d(1.0 / 3.0, 50.0, HEAVISIDE)
    assert sv.potential == pytest.approx(-14.0 / 9.0)
    assert sv.flux == pytest.approx(-4.0 / 3.0)


def test_series_starts_from_rest():
    sv = benchmark_time_series_1d(1.0 / 3.0, 1e-4, HEAVISIDE, n_terms=400)
    assert not sv.truncated
    assert sv.potential == pytest.approx(0.0, abs=1e-6)


def test_series_delayed_step_causality():
    assert benchmark_time_series_1d(1.0 / 3.0, 0.05, DELAYED_STEP).potential == 0.0
    late = benchmark_time_series_1d(1.0 / 3.0, 1.08, DELAYED_STEP)
    heav = benchmark_time_series_1d(1.0 / 3.0, 1.0, HEAVISIDE)
    assert late.potential == pytest.approx(heav.potential)


def test_series_truncation_flagged():
    sv = benchmark_time_series_1d(1.0 / 3.0, 1e-4, HEAVISIDE, n_terms=5)
    assert sv.truncated
    assert sv.bound > oracles.SERIES_BOUND_TOL


def test_series_rejects_cosine():
    # and every other behaviour it does not solve, such as the pairs: at
    # 1/(p+1) it would return the Heaviside value
    for behavior in (COSINE4T, *oracles.pair_catalog()):
        with pytest.raises(ValueError, match="no series solution"):
            benchmark_time_series_1d(1.0, 1.0, behavior)


# ---------------------------------------------------------------------------
# Crank-Nicolson reference
# ---------------------------------------------------------------------------

def test_fd_matches_series_heaviside():
    ts = np.geomspace(0.01, 10.0, 25)
    fd = crank_nicolson_1d(1.0 / 3.0, ts, HEAVISIDE, nx=300, dt=1e-3)
    series = [benchmark_time_series_1d(1.0 / 3.0, t, HEAVISIDE) for t in ts]
    pot_err = np.abs(fd.potential - np.array([s.potential for s in series]))
    assert np.max(pot_err) < 1e-3


def test_fd_steady_value():
    fd = crank_nicolson_1d(1.0 / 3.0, np.array([10.0]), HEAVISIDE, nx=300, dt=1e-3)
    assert fd.potential[0] == pytest.approx(-14.0 / 9.0, abs=1e-3)
    assert fd.flux[0] == pytest.approx(-4.0 / 3.0, abs=2e-3)


def test_fd_second_order_in_time():
    errs = []
    for dt in (4e-3, 2e-3):
        fd = crank_nicolson_1d(1.0 / 3.0, np.array([0.5]), HEAVISIDE,
                               nx=1500, dt=dt)
        ref = benchmark_time_series_1d(1.0 / 3.0, 0.5, HEAVISIDE)
        errs.append(abs(fd.potential[0] - ref.potential))
    assert 2.5 < errs[0] / errs[1] < 6.0


def test_fd_cosine_bounded_with_quarter_pi_period():
    ts = np.linspace(20.0, 20.0 + 2.0 * np.pi, 300)
    fd = crank_nicolson_1d(1.0 / 3.0, ts, COSINE4T, nx=200, dt=2e-3)
    assert np.max(np.abs(fd.potential)) < 2.0  # bounded forced oscillation
    peaks = [ts[i] for i in range(1, ts.size - 1)
             if fd.potential[i] > fd.potential[i - 1]
             and fd.potential[i] > fd.potential[i + 1]]
    spacings = np.diff(peaks)
    assert np.allclose(spacings, np.pi / 2.0, rtol=0.05)


def test_fd_delayed_step_zero_before_delay():
    ts = np.array([0.02, 0.05, 0.5])
    fd = crank_nicolson_1d(1.0 / 3.0, ts, DELAYED_STEP, nx=200, dt=1e-3)
    assert np.allclose(fd.potential[:2], 0.0, atol=1e-12)
    assert fd.potential[2] < -0.1


def test_fd_argument_validation():
    with pytest.raises(ValueError):
        crank_nicolson_1d(1.0, np.array([1.0]), HEAVISIDE, nx=8)
    with pytest.raises(ValueError):
        crank_nicolson_1d(1.0, np.array([0.005]), HEAVISIDE, dt=1e-2)
    for dt in (0.0, math.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            crank_nicolson_1d(1.0, np.array([1.0]), HEAVISIDE, dt=dt)
    # outside the rod a negative x_obs would index from the far end
    for x_obs in (-1.0, 3.5, math.nan):
        with pytest.raises(ValueError, match="x_obs"):
            crank_nicolson_1d(x_obs, np.array([1.0]), HEAVISIDE, nx=32)


def test_fd_rejects_non_finite_data():
    # a NaN after the start reaches the march only past its first steps
    late_nan = oracles.TimeBehavior(
        "late-nan", HEAVISIDE.image,
        lambda t: np.where(np.asarray(t) > 0.01, np.nan, 1.0))
    with pytest.raises(ValueError, match="not finite"):
        crank_nicolson_1d(1.0, np.array([0.05]), late_nan, nx=32)


def test_fd_keeps_no_per_step_state():
    # 10,000 steps to t = 10: a march that kept every step's modes or nodes
    # would hold 12 MB or more
    tracemalloc.start()
    try:
        crank_nicolson_1d(1.0 / 3.0, make_time_grid(0.01, 10.0, 15, "logarithmic"), COSINE4T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def _step_at(tau):
    """Unit step switched on after t = tau, with no midpoint value."""
    return oracles.TimeBehavior(
        f"step-after-{tau}", lambda p: np.exp(-tau * p) / p,
        lambda t: np.where(np.asarray(t) > tau, 1.0, 0.0), tau=tau)


#: The three boundary behaviors, dead times between steps of dt = 1e-3
#: (restarting in the step they fall in, and in the next one), and a time
#: function that returns a scalar for any input.
MARCH_BEHAVIORS = (HEAVISIDE, COSINE4T, DELAYED_STEP, _step_at(0.0805), _step_at(0.0809),
                   oracles.TimeBehavior("constant", HEAVISIDE.image, lambda t: 1.0))


def _assert_same_march(x_obs, times, behavior, **kwargs):
    # the march sums sine modes, the reference solves a tridiagonal system
    # per step: the same scheme in another order, so each column agrees to
    # 1e-12 of its largest value.  The rod ends carry +-2 f with |f| <= 1
    # for every behavior here, and a sum of modes rounds relative to that
    # state, not to a column that is tiny because diffusion has not reached
    # x_obs yet (or is rounding noise, at x_obs = 1.5): such a column is
    # held to 1e-12 of the boundary amplitude instead
    got = crank_nicolson_1d(x_obs, times, behavior, **kwargs)
    want = reference_cn.crank_nicolson_1d(x_obs, times, behavior, **kwargs)
    for column in ("potential", "flux"):
        g, w = getattr(got, column), getattr(want, column)
        scale = max(np.max(np.abs(w)), oracles.BENCH_AMPLITUDE)
        assert np.max(np.abs(g - w)) <= 1e-12 * scale, (column, g, w)
    assert np.array_equal(got.times, want.times)


@pytest.mark.parametrize("behavior", MARCH_BEHAVIORS, ids=lambda b: b.name)
def test_fd_matches_previous_march_bit_for_bit(behavior):
    # a log grid like the harness's, and output times on exact steps
    # (80 dt is the delay of DELAYED_STEP)
    _assert_same_march(1.0 / 3.0, make_time_grid(0.01, 2.0, 15, "logarithmic"),
                       behavior, nx=300, dt=1e-3)
    dt = 1e-3
    on_steps = np.array([1, 80, 81, 82, 250]) * dt
    _assert_same_march(1.0, on_steps, behavior, nx=64, dt=dt)
    _assert_same_march(1.0, on_steps + 1e-13, behavior, nx=64, dt=dt)


@settings(max_examples=40, deadline=None)
@given(st.integers(32, 300), st.sampled_from([1e-3, 2e-3, 5e-3]),
       st.sampled_from(MARCH_BEHAVIORS),
       st.one_of(st.sampled_from([0.0, 3.0]), st.floats(0.0, 3.0)),
       st.lists(st.tuples(st.integers(1, 300), st.sampled_from([0.0, 0.25, 0.5, 0.999])),
                min_size=1, max_size=6))
def test_fd_matches_previous_march_random_cases(nx, dt, behavior, x_obs, steps):
    times = np.unique([(k + frac) * dt for k, frac in steps])
    _assert_same_march(x_obs, times, behavior, nx=nx, dt=dt)


@pytest.mark.parametrize("bad", [(0.0105, 1.0), (0.0802, 0.0808)], ids=["step-end", "half-step"])
def test_fd_non_finite_error_names_first_bad_time(bad):
    # NaN from the step ending at 0.011 on, or only at the half-step time
    # 0.0805 of the restart after a dead time of 0.0805
    lo, hi = bad
    behavior = oracles.TimeBehavior(
        "nan-window", HEAVISIDE.image,
        lambda t: np.where((np.asarray(t) > lo) & (np.asarray(t) < hi), np.nan, 1.0),
        tau=0.0805)
    with pytest.raises(ValueError, match="not finite") as got:
        crank_nicolson_1d(1.0, np.array([0.1]), behavior, nx=32)
    with pytest.raises(ValueError, match="not finite") as want:
        reference_cn.crank_nicolson_1d(1.0, np.array([0.1]), behavior, nx=32)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("times", [[0.5, 0.1], [0.1, 0.1], [[0.1, 0.2]], [],
                                   [0.1, np.nan], [0.1, np.inf]],
                         ids=["unsorted", "repeated", "2-D", "empty", "nan", "inf"])
def test_fd_rejects_bad_output_times(times):
    # unsorted times used to leave output slots unwritten (potential 6.9e-310)
    with pytest.raises(ValueError, match="times must be"):
        crank_nicolson_1d(1.0, np.array(times, dtype=float), HEAVISIDE, nx=32)
