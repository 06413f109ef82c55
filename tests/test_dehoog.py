import math

import numpy as np
import pytest
import reference_dehoog

from invlap import algorithms as alg
from invlap import oracles
from invlap.algorithms import (FLAG_EXP_OVERFLOW, FLAG_QD_FALLBACK,
                               DeHoogParams, _dehoog_direct, dehoog_invert,
                               dehoog_nodes)
from invlap.core import (SamplingStrategy, TimeGrid, evaluate_image,
                         invert_all, make_time_grid, plan_samples)


def _samples(image, params):
    return np.array([image(p) for p in dehoog_nodes(params)])


def test_rule_of_thumb():
    params = DeHoogParams.rule_of_thumb(41, t_max=2.0)
    assert params.m_half == 20
    assert params.big_t == pytest.approx(4.0)
    assert params.gamma0 == pytest.approx(-math.log(1e-8) / 4.0)
    assert dehoog_nodes(params).size == 41


def test_nodes_on_vertical_contour():
    params = DeHoogParams.rule_of_thumb(21, t_max=1.0)
    p = dehoog_nodes(params)
    assert np.allclose(p.real, params.gamma0)
    assert p[0].imag == 0.0
    assert np.allclose(np.diff(p.imag), np.pi / params.big_t)


def test_inverts_ramp():
    params = DeHoogParams.rule_of_thumb(41, t_max=2.0)
    value, flags = dehoog_invert(_samples(lambda p: 1.0 / p**2, params), 1.0, params)
    assert value == pytest.approx(1.0, abs=1e-8)
    assert flags == ()


def test_inverts_cosine():
    params = DeHoogParams.rule_of_thumb(51, t_max=1.0)
    value, flags = dehoog_invert(_samples(lambda p: p / (p * p + 16.0), params), 1.0, params)
    assert value == pytest.approx(math.cos(4.0), abs=1e-6)
    assert flags == ()


def test_zero_series_falls_back_to_direct_sum():
    params = DeHoogParams.rule_of_thumb(21, t_max=1.0)
    value, flags = dehoog_invert(np.zeros(21, dtype=complex), 0.5, params)
    assert value == 0.0
    assert FLAG_QD_FALLBACK in flags


def test_acceleration_matches_long_direct_sum():
    # the accelerated value must agree with a brute-force trapezoid sum
    # using 10^4 terms of the same contour; a pair with O(k^-4) sample
    # decay keeps the truncated direct sum itself meaningful at 1e-6
    t_max = 2.0
    params = DeHoogParams.rule_of_thumb(41, t_max)
    image = lambda p: 1.0 / (p * p + 1.0) ** 2  # (sin t - t cos t)/2
    accel, _ = dehoog_invert(_samples(image, params), 1.0, params)

    m_big = 5000
    big = DeHoogParams(big_t=params.big_t, gamma0=params.gamma0, m_half=m_big)
    direct = _dehoog_direct(_samples(image, big), 1.0, big)
    assert accel == pytest.approx(direct, abs=1e-6)
    assert accel == pytest.approx((math.sin(1.0) - math.cos(1.0)) / 2.0, abs=1e-6)


def test_table_reuse_matches_single_shot():
    # one dehoog_batch call inverts several times from one table, bit for
    # bit as dehoog_invert does at each time alone
    params = DeHoogParams.rule_of_thumb(31, t_max=3.0)
    samples = _samples(lambda p: 1.0 / (p + 0.5), params)
    times = np.array([0.3, 1.0, 3.0])
    values, flags = alg.dehoog_batch(samples[None], (params,), (times,))
    assert len(values) == len(flags) == times.size
    for t, value, tflags in zip(times.tolist(), values, flags):
        one_shot, one_flags = dehoog_invert(samples, t, params)
        assert value.tobytes() == one_shot.tobytes()
        assert tflags == one_flags


def test_sample_count_checked():
    params = DeHoogParams.rule_of_thumb(21, t_max=1.0)
    with pytest.raises(ValueError):
        dehoog_invert(np.ones(20, dtype=complex), 1.0, params)


def test_parameter_validation():
    with pytest.raises(ValueError):
        DeHoogParams(big_t=-1.0, gamma0=1.0, m_half=5)
    with pytest.raises(ValueError):
        DeHoogParams(big_t=1.0, gamma0=1.0, m_half=0)


def test_vector_channels():
    params = DeHoogParams.rule_of_thumb(31, t_max=2.0)
    p = dehoog_nodes(params)
    samples = np.column_stack([1.0 / p, 1.0 / (p + 1.0)])
    value, flags = dehoog_invert(samples, 1.0, params)
    assert value.shape == (2,)
    assert value[0] == pytest.approx(1.0, abs=1e-7)
    assert value[1] == pytest.approx(math.exp(-1.0), abs=1e-7)


def test_exp_overflow_gives_flagged_nan_through_invert_all():
    # gamma0 t passes the exp limit at the last time only; that time is a
    # flagged NaN and the sweep goes on
    grid = make_time_grid(0.5, 2.0, 3)
    plan = plan_samples("dehoog", grid, 15, SamplingStrategy.SHARED_GLOBAL,
                        DeHoogParams.rule_of_thumb(15, grid.t_max, sigma=400.0))
    assert plan.groups[0].params.gamma0 * grid.t_max > alg._EXP_LIMIT
    result = invert_all("dehoog", evaluate_image(plan, lambda p: 1.0 / p), grid)
    assert math.isnan(result.values[-1])
    assert result.flags[-1] == (FLAG_EXP_OVERFLOW,)
    assert all(FLAG_EXP_OVERFLOW not in f for f in result.flags[:-1])

    params = plan.groups[0].params
    samples = np.column_stack([plan.p, plan.p])
    value, flags = dehoog_invert(samples, grid.t_max, params)
    assert value.shape == (2,) and np.all(np.isnan(value))
    assert flags == (FLAG_EXP_OVERFLOW,)


#: The two grids of the perfbench pairs-dense workload at unit scale.
PAIRS_DENSE_GRIDS = (make_time_grid(0.0125, 9.0, 16, "logarithmic"),
                     TimeGrid(0.11 * np.arange(1, 17), "linear"))


@pytest.mark.parametrize("grid", PAIRS_DENSE_GRIDS, ids=("log", "linear"))
@pytest.mark.parametrize("strategy", (SamplingStrategy.PER_TIME_OPTIMAL,
                                      SamplingStrategy.SHARED_PER_LOG_CYCLE),
                         ids=lambda s: s.value)
def test_array_table_matches_scalar_reference(grid, strategy, monkeypatch):
    # the array table rounds differently from the scalar one, and the qd
    # table amplifies rounding, so the two agree closely, not bit for bit;
    # an error against the closed form must stay within 1% of the scalar
    # table's, unless both are rounding noise (per-time plans of the
    # smooth pairs err by about 1e-13, which one rounding moves by half)
    plan = plan_samples("dehoog", grid, 41, strategy)
    for pair in oracles.pair_catalog():
        samples = evaluate_image(plan, pair.image)
        new = invert_all("dehoog", samples, grid)
        with monkeypatch.context() as patch:
            patch.setattr(alg, "_qd_coefficients", reference_dehoog.qd_columns)
            ref = invert_all("dehoog", samples, grid)
        exact = np.array([float(pair.time_function(t)) for t in grid.times])
        assert new.flags == ref.flags, pair.name
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(new.values - ref.values)) <= 1e-6 * scale, pair.name
        err_new = np.max(np.abs(new.values - exact))
        err_ref = np.max(np.abs(ref.values - exact))
        noise = 1e-10 * scale
        assert (max(err_new, err_ref) <= noise
                or abs(err_new - err_ref) <= 0.01 * err_ref), (pair.name, err_new, err_ref)


def test_only_the_broken_column_falls_back(monkeypatch):
    params = DeHoogParams.rule_of_thumb(31, t_max=2.0)
    p = dehoog_nodes(params)
    samples = np.column_stack([1.0 / p, np.zeros_like(p)])
    fallbacks = []

    def direct(a, t, params):
        fallbacks.append(a.copy())
        return _dehoog_direct(a, t, params)

    monkeypatch.setattr(alg, "_dehoog_direct", direct)
    value, flags = dehoog_invert(samples, 1.0, params)
    assert flags == (FLAG_QD_FALLBACK,)
    assert len(fallbacks) == 1 and np.array_equal(fallbacks[0], samples[:, 1])
    assert value[1] == 0.0
    assert value[0] == pytest.approx(1.0, abs=1e-7)


def _random_series(rng, m, channels):
    """(2M+1, channels) complex series with magnitudes over many decades."""
    shape = (2 * m + 1, channels)
    scale = 10.0 ** rng.uniform(-8, 8, shape)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_table_matches_array_step_reference_bit_for_bit():
    rng = np.random.default_rng(14)
    for _ in range(500):
        a = _random_series(rng, int(rng.integers(1, 26)), int(rng.integers(1, 3)))
        assert np.array_equal(alg._qd_coefficients(a), reference_dehoog.qd_array_steps(a),
                              equal_nan=True)


def test_recurrence_matches_numpy_scalar_reference_bit_for_bit():
    # finite tables only: dehoog_batch evaluates no other
    rng = np.random.default_rng(15)
    draws = 0
    while draws < 3000:
        m = int(rng.integers(1, 26))
        d = alg._qd_coefficients(_random_series(rng, m, 1))[:, 0]
        if not np.all(np.isfinite(d)):
            continue
        draws += 1
        z = np.exp(1j * np.pi * rng.uniform(0.0, 1.0))
        got = alg._dehoog_eval(d.tolist(), z)
        ref = reference_dehoog.dehoog_eval_numpy(d, z)
        assert np.array_equal(got, ref, equal_nan=True), (m, z)


@pytest.mark.parametrize("grid", PAIRS_DENSE_GRIDS, ids=("log", "linear"))
@pytest.mark.parametrize("strategy", (SamplingStrategy.PER_TIME_OPTIMAL,
                                      SamplingStrategy.SHARED_PER_LOG_CYCLE),
                         ids=lambda s: s.value)
def test_inversion_matches_numpy_scalar_recurrence_bit_for_bit(grid, strategy, monkeypatch):
    # two channels, as the BEM image gives
    plan = plan_samples("dehoog", grid, 41, strategy)
    for pair in oracles.pair_catalog():
        samples = evaluate_image(plan, lambda p: np.array([pair.image(p), 2.0 * pair.image(p)]))
        new = invert_all("dehoog", samples, grid)
        with monkeypatch.context() as patch:
            patch.setattr(alg, "_qd_coefficients", reference_dehoog.qd_array_steps)
            patch.setattr(alg, "_dehoog_eval", reference_dehoog.dehoog_eval_numpy)
            ref = invert_all("dehoog", samples, grid)
        assert new.flags == ref.flags, pair.name
        assert np.array_equal(new.values, ref.values, equal_nan=True), pair.name
