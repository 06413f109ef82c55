import math

import numpy as np
import pytest

from invlap.algorithms import (WeeksParams, weeks_coefficients, weeks_eval,
                               weeks_nodes, weeks_theta)
import reference_weeks


def _sample(params, image):
    return np.array([image(p) for p in weeks_nodes(params)])


def test_parameter_validation():
    with pytest.raises(ValueError):
        WeeksParams(kappa=0.1, b=-1.0, n_coeffs=3, m_half=4)
    with pytest.raises(ValueError):
        WeeksParams(kappa=0.1, b=1.0, n_coeffs=9, m_half=4)  # 2M < N+1


def test_rule_of_thumb():
    params = WeeksParams.rule_of_thumb(32, t_max=10.0, sigma=0.0)
    assert params.n_coeffs == 31
    assert params.m_half == 32
    assert params.kappa == pytest.approx(0.1)
    assert params.b == pytest.approx(3.1)


def test_nodes_lie_on_vertical_line():
    params = WeeksParams.rule_of_thumb(16, t_max=2.0, sigma=0.5)
    nodes = weeks_nodes(params)
    assert np.allclose(nodes.real, params.kappa)
    assert np.all(nodes.imag > 0)  # upper half only


def test_zero_image_gives_zero_coefficients():
    params = WeeksParams.rule_of_thumb(8, t_max=1.0)
    a = weeks_coefficients(np.zeros(8, dtype=complex), params)
    assert np.allclose(a, 0.0)


def test_geometric_coefficients():
    # fbar(p) = 1/(p - kappa + 3b/2) maps to Psi(z) = 1/(2 - z), whose
    # Taylor coefficients are 2^-(n+1)
    params = WeeksParams(kappa=0.7, b=1.3, n_coeffs=10, m_half=64)
    samples = _sample(params, lambda p: 1.0 / (p - params.kappa + 1.5 * params.b))
    a = weeks_coefficients(samples, params)
    assert np.allclose(a, 0.5 ** np.arange(1, 12), atol=1e-12)


def test_coefficients_real_via_conjugate_symmetry():
    # full-circle midpoint sum built from mirrored samples must agree with
    # the half-circle evaluation and be real to rounding
    params = WeeksParams(kappa=0.3, b=2.0, n_coeffs=7, m_half=8)
    samples = _sample(params, lambda p: 1.0 / (p + 1.0))
    a = weeks_coefficients(samples, params)

    theta_up = weeks_theta(params)
    theta_full = np.concatenate([-theta_up[::-1], theta_up])
    psi_up = params.b / (1.0 - np.exp(1j * theta_up)) * samples
    psi_full = np.concatenate([np.conj(psi_up[::-1]), psi_up])
    n = np.arange(params.n_coeffs + 1)
    a_full = (np.exp(-1j * np.outer(n, theta_full)) @ psi_full) / (2 * params.m_half)
    assert np.max(np.abs(a_full.imag)) <= 1e-10 * np.max(np.abs(a_full))
    assert np.allclose(a, a_full.real, atol=1e-12)


def test_eval_constant_series():
    params = WeeksParams(kappa=1.0, b=2.0, n_coeffs=3, m_half=4)  # kappa = b/2
    value, flags = weeks_eval(np.array([1.0, 0.0, 0.0, 0.0]), params, 7.7)
    assert value == pytest.approx(1.0)
    assert flags == ()


def test_eval_l1_zero():
    params = WeeksParams(kappa=1.0, b=2.0, n_coeffs=1, m_half=2)
    value, _ = weeks_eval(np.array([0.0, 1.0]), params, 0.5)  # b t = 1
    assert value == pytest.approx(0.0, abs=1e-14)


def test_pipeline_decaying_exponential():
    params = WeeksParams.rule_of_thumb(32, t_max=10.0, sigma=0.0)
    samples = _sample(params, lambda p: 1.0 / (p + 1.0))
    a = weeks_coefficients(samples, params)
    ts = np.geomspace(0.1, 10.0, 30)
    got = np.array([weeks_eval(a, params, t)[0] for t in ts])
    assert np.max(np.abs(got - np.exp(-ts))) < 1e-6


def test_rule_of_thumb_floor_for_pole_at_origin():
    # with b = N/t_max the mapped pole of 1/p sits at radius
    # (N+2)/(N-2), so the coefficient tail stalls near exp(-4) and the
    # reconstruction plateaus at the percent level no matter N
    for terms in (16, 32):
        params = WeeksParams.rule_of_thumb(terms, t_max=1.0)
        a = weeks_coefficients(_sample(params, lambda p: 1.0 / p), params)
        ts = np.geomspace(0.1, 1.0, 10)
        err = max(abs(weeks_eval(a, params, t)[0] - 1.0) for t in ts)
        assert 1e-4 < err < 5e-2

    # a scale chosen for this image (kappa = b/2) is exact by construction
    params = WeeksParams(kappa=1.0, b=2.0, n_coeffs=15, m_half=16)
    a = weeks_coefficients(_sample(params, lambda p: 1.0 / p), params)
    ts = np.geomspace(0.1, 1.0, 10)
    err = max(abs(weeks_eval(a, params, t)[0] - 1.0) for t in ts)
    assert err < 1e-12


def test_reference_coefficients_closed_form():
    # the floor oracle of the acceptance suite: for 1/p its coefficients
    # are a_n = 2 b_W/(kappa + b_W) (-rho)^n, b_W = b/2,
    # rho = (b_W - kappa)/(b_W + kappa)
    kappa, b, n = reference_weeks.rule_of_thumb(32, t_max=1.0)
    a = reference_weeks.laguerre_coefficients(lambda p: 1.0 / p, kappa, b, n)
    b_w = b / 2.0
    rho = (b_w - kappa) / (b_w + kappa)
    exact = 2.0 * b_w / (kappa + b_w) * (-rho) ** np.arange(n + 1)
    assert np.max(np.abs(a - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_exp_overflow_flagged():
    params = WeeksParams(kappa=2000.0, b=2.0, n_coeffs=1, m_half=2)
    value, flags = weeks_eval(np.array([1.0, 0.0]), params, 1.0)
    assert "exp-overflow" in flags
    assert np.isnan(value)


def test_sample_count_checked():
    params = WeeksParams.rule_of_thumb(8, t_max=1.0)
    with pytest.raises(ValueError):
        weeks_coefficients(np.zeros(5, dtype=complex), params)


@pytest.mark.parametrize("terms", (2, 8, 16, 32))
def test_cached_kernel_matches_uncached_formula_bit_for_bit(terms):
    rng = np.random.default_rng(terms)
    params = WeeksParams.rule_of_thumb(terms, t_max=10.0)
    z = np.exp(1j * weeks_theta(params))
    assert np.array_equal(weeks_nodes(params),
                          params.kappa - params.b / 2.0 + params.b / (1.0 - z))
    for shape in [(params.m_half,), (params.m_half, 1), (params.m_half, 2)] * 20:
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(weeks_coefficients(samples, params),
                              reference_weeks.half_circle_coefficients(samples, params))
