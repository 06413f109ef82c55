import math

import numpy as np
import pytest

from invlap.algorithms import (FLAG_QD_FALLBACK, DeHoogParams, DeHoogTable,
                               _dehoog_direct, dehoog_nodes)


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
    value, flags = DeHoogTable(_samples(lambda p: 1.0 / p**2, params), params).evaluate(1.0)
    assert value == pytest.approx(1.0, abs=1e-8)
    assert flags == ()


def test_inverts_cosine():
    params = DeHoogParams.rule_of_thumb(51, t_max=1.0)
    value, flags = DeHoogTable(
        _samples(lambda p: p / (p * p + 16.0), params), params).evaluate(1.0)
    assert value == pytest.approx(math.cos(4.0), abs=1e-6)
    assert flags == ()


def test_zero_series_falls_back_to_direct_sum():
    params = DeHoogParams.rule_of_thumb(21, t_max=1.0)
    value, flags = DeHoogTable(np.zeros(21, dtype=complex), params).evaluate(0.5)
    assert value == 0.0
    assert FLAG_QD_FALLBACK in flags


def test_acceleration_matches_long_direct_sum():
    # the accelerated value must agree with a brute-force trapezoid sum
    # using 10^4 terms of the same contour; a pair with O(k^-4) sample
    # decay keeps the truncated direct sum itself meaningful at 1e-6
    t_max = 2.0
    params = DeHoogParams.rule_of_thumb(41, t_max)
    image = lambda p: 1.0 / (p * p + 1.0) ** 2  # (sin t - t cos t)/2
    accel, _ = DeHoogTable(_samples(image, params), params).evaluate(1.0)

    m_big = 5000
    big = DeHoogParams(big_t=params.big_t, gamma0=params.gamma0, m_half=m_big)
    direct = _dehoog_direct(_samples(image, big), 1.0, big)
    assert accel == pytest.approx(direct, abs=1e-6)
    assert accel == pytest.approx((math.sin(1.0) - math.cos(1.0)) / 2.0, abs=1e-6)


def test_table_reuse_matches_single_shot():
    params = DeHoogParams.rule_of_thumb(31, t_max=3.0)
    samples = _samples(lambda p: 1.0 / (p + 0.5), params)
    table = DeHoogTable(samples, params)
    for t in (0.3, 1.0, 3.0):
        one_shot, _ = DeHoogTable(samples, params).evaluate(t)
        reused, _ = table.evaluate(t)
        assert reused == one_shot


def test_sample_count_checked():
    params = DeHoogParams.rule_of_thumb(21, t_max=1.0)
    with pytest.raises(ValueError):
        DeHoogTable(np.ones(20, dtype=complex), params)


def test_parameter_validation():
    with pytest.raises(ValueError):
        DeHoogParams(big_t=-1.0, gamma0=1.0, m_half=5)
    with pytest.raises(ValueError):
        DeHoogParams(big_t=1.0, gamma0=1.0, m_half=0)


def test_vector_channels():
    params = DeHoogParams.rule_of_thumb(31, t_max=2.0)
    p = dehoog_nodes(params)
    samples = np.column_stack([1.0 / p, 1.0 / (p + 1.0)])
    value, flags = DeHoogTable(samples, params).evaluate(1.0)
    assert value.shape == (2,)
    assert value[0] == pytest.approx(1.0, abs=1e-7)
    assert value[1] == pytest.approx(math.exp(-1.0), abs=1e-7)
