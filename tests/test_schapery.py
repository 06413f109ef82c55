import math

import numpy as np
import pytest
import reference_schapery
from scipy.linalg.lapack import dsytrf

from invlap import algorithms as alg
from invlap.algorithms import (SchaperyParams, SingularFitError, schapery_eval,
                               schapery_fit)


def test_node_validation():
    with pytest.raises(ValueError):
        SchaperyParams(nodes=(1.0, 1.0))
    with pytest.raises(ValueError):
        SchaperyParams(nodes=(-1.0, 2.0))
    with pytest.raises(ValueError):
        SchaperyParams(nodes=())


def test_geometric_ladder_spans_time_range():
    params = SchaperyParams.geometric(9, t_min=0.1, t_max=10.0)
    nodes = np.array(params.nodes)
    assert nodes[0] == pytest.approx(1.0 / 100.0)
    assert nodes[-1] == pytest.approx(100.0)
    ratios = nodes[1:] / nodes[:-1]
    assert np.allclose(ratios, ratios[0])


def test_pure_steady_image_gives_zero_coefficients():
    # fbar = f_s / p carries no transient at all
    params = SchaperyParams(nodes=(0.25, 1.0, 4.0), f_s=1.0)
    samples = 1.0 / np.array(params.nodes)
    fit = schapery_fit(samples, params)
    assert np.allclose(fit.coefficients, 0.0, atol=1e-12)
    assert schapery_eval(fit, 3.3) == pytest.approx(1.0)


def test_single_node_hand_solve():
    # P11 = 1/2, rhs = -1/2, so a1 = -1
    params = SchaperyParams(nodes=(1.0,), f_s=1.0)
    samples = np.array([1.0 / 1.0 - 1.0 / 2.0])
    fit = schapery_fit(samples, params)
    assert fit.coefficients[0] == pytest.approx(-1.0)


def test_eval_closed_forms():
    params = SchaperyParams(nodes=(1.0,), f_s=1.0)
    fit = schapery_fit(np.array([0.5]), params)  # a1 = -1 per the hand solve
    assert schapery_eval(fit, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert schapery_eval(fit, math.log(2.0)) == pytest.approx(0.5)


def test_reconstructs_one_minus_exp():
    # fbar = 1/p - 1/(p+1), f(t) = 1 - exp(-t)
    nodes = tuple(0.1 * 2.0 ** np.arange(9))
    params = SchaperyParams(nodes=nodes, f_s=1.0)
    p = np.array(nodes)
    samples = 1.0 / p - 1.0 / (p + 1.0)
    fit = schapery_fit(samples, params)
    ts = np.geomspace(0.1, 10.0, 40)
    got = np.array([schapery_eval(fit, t) for t in ts])
    assert np.max(np.abs(got - (1.0 - np.exp(-ts)))) < 1e-3


def test_final_value_estimate_when_fs_missing():
    nodes = tuple(np.geomspace(1e-3, 10.0, 8))
    params = SchaperyParams(nodes=nodes)
    p = np.array(nodes)
    samples = 1.0 / p - 1.0 / (p + 1.0)
    fit = schapery_fit(samples, params)
    # p1 fbar(p1) -> 1 as p1 -> 0
    assert float(fit.f_s) == pytest.approx(1.0, abs=1e-3)


def test_condition_estimate_reported():
    params = SchaperyParams(nodes=tuple(np.geomspace(0.01, 100.0, 12)), f_s=0.0)
    p = np.array(params.nodes)
    fit = schapery_fit(1.0 / p, params)
    assert fit.condition > 1.0


def test_vector_channels():
    params = SchaperyParams(nodes=(0.5, 1.0, 2.0), f_s=None)
    p = np.array(params.nodes)
    samples = np.column_stack([1.0 / p, 2.0 / p])
    fit = schapery_fit(samples, params)
    out = schapery_eval(fit, 5.0)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(1.0, rel=1e-8)
    assert out[1] == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 2)])
def test_fixed_f_s_applies_to_every_channel(shape):
    # fbar(0.5) = 2 in every channel makes the final-value estimate
    # p_1 fbar(p_1) exactly 1, so a fixed f_s = 1 must fit bit for bit as
    # the estimate does
    fixed = SchaperyParams(nodes=(0.5, 1.0, 2.0), f_s=1.0)
    estimated = SchaperyParams(nodes=fixed.nodes)
    channels = shape[1] if len(shape) > 1 else 1
    samples = np.column_stack([[2.0, 0.9, 0.3], [2.0, 1.3, 0.45]])[:, :channels].reshape(shape)
    fit = schapery_fit(samples, fixed)
    ref = schapery_fit(samples, estimated)
    assert np.array_equal(fit.f_s, ref.f_s) and fit.f_s.shape == shape[1:]
    assert np.array_equal(fit.coefficients, ref.coefficients)
    for t in (0.0, 0.7, 5.0):
        assert np.array_equal(schapery_eval(fit, t), schapery_eval(ref, t))


#: Ladders of experiment A (9 terms), of the benchmark's pair workload
#: (16), of the pair suite (41) and of experiments B-D (51 terms,
#: condition 1.7e20), plus short ones.
LADDERS = (2, 3, 9, 15, 16, 41, 51)


@pytest.mark.parametrize("terms", LADDERS)
def test_factor_matches_scipy_solve_bit_for_bit(terms):
    # one cached LDL^T factor and a back-substitution per fit give the
    # same coefficients as a full symmetric solve, in C order, so that
    # schapery_eval sums them in the same order too
    rng = np.random.default_rng(terms)
    params = SchaperyParams.geometric(terms, t_min=0.01, t_max=10.0)
    for shape in [(terms,), (terms, 1), (terms, 2)] * 20:
        samples = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6)
        fit = schapery_fit(samples, params)
        ref = reference_schapery.fit_coefficients(samples, params)
        assert fit.coefficients.flags.c_contiguous
        assert np.array_equal(fit.coefficients, ref)
        for t in (0.01, 0.3, 10.0):
            ref_value = fit.f_s + np.tensordot(np.exp(-fit.nodes * t), ref, axes=(0, 0))
            assert np.array_equal(schapery_eval(fit, t), ref_value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("f_s", [None, 1.0])
def test_non_finite_sample_raises_value_error(bad, f_s):
    params = SchaperyParams(nodes=(0.5, 1.0, 2.0), f_s=f_s)
    for i in range(3):
        samples = np.array([1.0, 0.5, 0.25])
        samples[i] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            schapery_fit(samples, params)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            schapery_fit(np.column_stack([np.ones(3), samples]), params)


def test_zero_pivot_raises_singular_fit_error(monkeypatch):
    # distinct positive nodes give a positive definite P, so a zero pivot
    # is patched in
    lu, ipiv, info = dsytrf(np.zeros((3, 3)))
    assert info > 0
    monkeypatch.setattr(alg, "_collocation", lambda nodes: (lu, ipiv, info, math.inf))
    with pytest.raises(SingularFitError, match="singular"):
        schapery_fit(np.ones(3), SchaperyParams(nodes=(0.5, 1.0, 2.0)))
