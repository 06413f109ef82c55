import math
import os
import subprocess
import sys

import numpy as np
import pytest
import reference_dedup
from hypothesis import given, settings
from hypothesis import strategies as st

from invlap import algorithms as alg
from invlap import core, harness
from invlap.core import (CountingImage, ImageEvaluationError,
                         InvalidStrategyError, PlanMismatchError, SamplePlan,
                         SamplingStrategy, TimeGrid, evaluate_image,
                         invert_all, make_time_grid, plan_samples)

PTO = SamplingStrategy.PER_TIME_OPTIMAL
SG = SamplingStrategy.SHARED_GLOBAL
SLC = SamplingStrategy.SHARED_PER_LOG_CYCLE


def test_public_names_resolve():
    import invlap

    assert len(set(invlap.__all__)) == len(invlap.__all__)
    for name in invlap.__all__:
        assert getattr(invlap, name) is not None, name


def test_import_does_not_load_scipy_signal():
    # scipy.signal costs 0.8-0.9 s to import, paid again by every fresh
    # process that imports invlap
    import invlap

    src = os.path.dirname(os.path.dirname(os.path.abspath(invlap.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import invlap; "
            "print(invlap.__file__); print('scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, timeout=120, check=True)
    where, loaded = out.stdout.split()
    assert os.path.samefile(where, invlap.__file__)
    assert loaded == "False"


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

def test_single_point_grid():
    grid = make_time_grid(1.0, 1.0, 1, "explicit")
    assert list(grid.times) == [1.0]


def test_logarithmic_grid_equal_ratios():
    grid = make_time_grid(0.01, 10.0, 4, "logarithmic")
    assert np.allclose(grid.times, [0.01, 0.1, 1.0, 10.0])


def test_linear_grid():
    grid = make_time_grid(1.0, 3.0, 3, "linear")
    assert np.allclose(grid.times, [1.0, 2.0, 3.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        make_time_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        make_time_grid(1.0, 2.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([math.nan]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([1.0, math.inf]))
    with pytest.raises(ValueError):
        make_time_grid(0.01, math.inf, 4)
    with pytest.raises(ValueError):
        make_time_grid(math.nan, 1.0, 4)
    with pytest.raises(ValueError, match="spacing"):
        make_time_grid(1.0, 1.0, 1, "bogus")
    with pytest.raises(ValueError, match="spacing"):
        make_time_grid(1.0, 2.0, 3, "explicit")


# ---------------------------------------------------------------------------
# planning and deduplication
# ---------------------------------------------------------------------------

def test_stehfest_requires_per_time():
    grid = make_time_grid(0.1, 10.0, 5)
    with pytest.raises(InvalidStrategyError):
        plan_samples("stehfest", grid, 8, SG)


def test_unknown_method_rejected():
    grid = make_time_grid(0.1, 10.0, 5)
    with pytest.raises(ValueError):
        plan_samples("piessens", grid, 8, SG)


@pytest.mark.parametrize("method", core.METHODS)
def test_non_integer_terms_rejected(method):
    # 12.5 used to raise TypeError for Talbot and Schapery, plan 13 Weeks
    # nodes that failed at every time, and plan de Hoog at order 12
    grid = make_time_grid(0.1, 10.0, 5)
    strategy = PTO if method in core.PER_TIME_METHODS else SG
    for terms in (12.5, 12.0, "12"):
        with pytest.raises(ValueError, match="terms must be an integer"):
            plan_samples(method, grid, terms, strategy)
    assert np.array_equal(plan_samples(method, grid, np.int64(12), strategy).p,
                          plan_samples(method, grid, 12, strategy).p)


@pytest.mark.parametrize("make", [
    lambda: alg.TalbotParams(r=math.nan, n_nodes=8),
    lambda: alg.TalbotParams(r=math.inf, n_nodes=8),
    lambda: alg.DeHoogParams(big_t=math.nan, gamma0=1.0, m_half=5),
    lambda: alg.DeHoogParams(big_t=math.inf, gamma0=1.0, m_half=5),
    lambda: alg.DeHoogParams(big_t=2.0, gamma0=math.nan, m_half=5),
    lambda: alg.WeeksParams(kappa=math.nan, b=1.0, n_coeffs=3, m_half=4),
    lambda: alg.WeeksParams(kappa=0.1, b=math.nan, n_coeffs=3, m_half=4),
    lambda: alg.SchaperyParams(nodes=(1.0, math.nan, 3.0)),
    lambda: alg.SchaperyParams(nodes=(1.0, math.inf)),
    lambda: alg.SchaperyParams(nodes=(1.0, 3.0), f_s=math.nan),
], ids=["talbot-r-nan", "talbot-r-inf", "dehoog-T-nan", "dehoog-T-inf", "dehoog-gamma0-nan",
        "weeks-kappa-nan", "weeks-b-nan", "schapery-node-nan", "schapery-node-inf",
        "schapery-fs-nan"])
def test_params_reject_non_finite_values(make):
    # `<= 0` is false for NaN, so these used to construct and plan NaN nodes
    with pytest.raises(ValueError, match="finite"):
        make()


def test_per_time_counts_before_dedup():
    grid = make_time_grid(0.01, 10.0, 15)
    for method in ("schapery", "weeks", "talbot", "dehoog"):
        plan = plan_samples(method, grid, 5, PTO)
        assert plan.raw_evaluations == 75
    # even-order rounding makes stehfest request one extra node per time
    plan = plan_samples("stehfest", grid, 5, PTO)
    assert plan.raw_evaluations == 15 * 6


def test_shared_global_counts():
    grid = make_time_grid(0.05, 7.0, 15)
    plan = plan_samples("dehoog", grid, 51, SG)
    assert plan.raw_evaluations == 51
    assert plan.total_evaluations == 51
    assert len(plan.groups) == 1
    assert np.all(plan.groups[0].time_indices == np.arange(15))


def test_per_log_cycle_grouping():
    grid = TimeGrid(np.array([0.02, 0.05, 0.2, 0.5, 2.0, 5.0]))
    plan = plan_samples("talbot", grid, 8, SLC)
    assert len(plan.groups) == 3
    for group in plan.groups:
        # the group's rule-of-thumb scale comes from its own largest time
        t_last = float(grid.times[group.time_indices[-1]])
        assert group.params == alg.TalbotParams.rule_of_thumb(8, t_last)


def test_stehfest_overlap_dedup():
    # nodes k ln2/t for t in {1, 2} overlap at ln2 and 2 ln2, so the
    # direct enumeration of distinct values gives 6, not 8
    grid = TimeGrid(np.array([1.0, 2.0]))
    plan = plan_samples("stehfest", grid, 4, PTO)
    assert plan.raw_evaluations == 8
    raw = np.concatenate([np.arange(1, 5) * math.log(2.0) / t for t in (1.0, 2.0)])
    assert plan.total_evaluations == np.unique(raw).size == 6


def test_dedup_merges_near_identical_values():
    nodes = alg.talbot_contour(1.0, 4)
    shifted = nodes * (1.0 + 1e-15)
    distinct, idx = core._dedup([nodes, shifted])
    assert distinct.size == 4
    assert np.array_equal(idx[0], idx[1])


_RTOL = core.DEDUP_RTOL
_BASES = (1.0, 0.25 + 3.0j, -2.0 - 1.0j, 1e-300 + 1e-300j, 3e150 - 1e150j)
#: relative offsets in units of DEDUP_RTOL: inside, near and outside the tolerance
_OFFSETS = (0.0, 0.3, 0.9, 1.1, 3.0, -0.3, -0.9, -1.1, -3.0)
_SPECIALS = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(np.nan, 0.0),
             complex(np.nan, 1.0), complex(np.inf, 0.0), complex(-np.inf, 0.0),
             complex(1.0, np.inf), complex(np.inf, np.nan), complex(1.5e308, 1.5e308))
_NEAR = st.builds(lambda base, f, g: base * complex(1.0 + f * _RTOL, g * _RTOL),
                  st.sampled_from(_BASES), st.sampled_from(_OFFSETS),
                  st.sampled_from(_OFFSETS))
_PIECES = st.one_of(
    _NEAR.map(lambda v: [v]),
    _NEAR.map(lambda v: [v, v.conjugate()]),
    # chains: neighbours 0.9 tolerances apart, ends 1.8 or more; radial
    # ones, and vertical ones that share one real part
    st.builds(lambda base, n: [base * (1.0 + 0.9 * k * _RTOL) for k in range(n)],
              st.sampled_from(_BASES), st.integers(3, 5)),
    st.builds(lambda base, n: [base + 0.9j * k * _RTOL * abs(base) for k in range(n)],
              st.sampled_from(_BASES), st.integers(3, 5)),
    # distinct nodes of one modulus, which share one modulus window
    st.builds(lambda base: [base * np.exp(1j * np.pi * k / 7) for k in range(5)],
              st.sampled_from(_BASES)),
    st.sampled_from(_SPECIALS).map(lambda v: [v]),
)
_NODE_ARRAYS = st.lists(_PIECES, max_size=6).flatmap(
    lambda pieces: st.permutations([v for piece in pieces for v in piece])).map(
    lambda values: np.array(values, dtype=complex))


@settings(max_examples=300, deadline=None)
@given(st.lists(_NODE_ARRAYS, min_size=1, max_size=4))
def test_dedup_matches_greedy_scan(nodes):
    with np.errstate(all="ignore"):
        distinct, index = core._dedup(nodes)
        ref_distinct, ref_index = reference_dedup.dedup(nodes)
    assert distinct.dtype == ref_distinct.dtype
    assert distinct.tobytes() == ref_distinct.tobytes()
    assert len(index) == len(ref_index)
    for got, want in zip(index, ref_index):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_dedup_sound_for_inversion():
    # inverting from the deduplicated plan equals inverting from a plan
    # that evaluates every raw node separately
    grid = TimeGrid(np.array([1.0, 2.0]))
    plan = plan_samples("stehfest", grid, 4, PTO)

    raw_nodes = [alg.stehfest_nodes(t, g.params) for g, t in
                 zip(plan.groups, grid.times)]
    p_raw = np.concatenate(raw_nodes).astype(complex)
    groups = []
    offset = 0
    for g, nodes in zip(plan.groups, raw_nodes):
        groups.append(core.PlanGroup(params=g.params,
                                     node_indices=np.arange(offset, offset + nodes.size),
                                     time_indices=g.time_indices))
        offset += nodes.size
    plan_raw = SamplePlan(method="stehfest", grid=grid, p=p_raw, groups=tuple(groups),
                          raw_evaluations=p_raw.size)

    image = lambda p: 1.0 / (p + 1.0)
    r_dedup = invert_all("stehfest", evaluate_image(plan, image), grid)
    r_raw = invert_all("stehfest", evaluate_image(plan_raw, image), grid)
    assert np.allclose(r_dedup.values, r_raw.values, rtol=1e-14, atol=0)


def test_single_time_strategy_consistency():
    grid = TimeGrid(np.array([3.0]))
    for method in ("schapery", "weeks", "talbot", "dehoog"):
        p1 = plan_samples(method, grid, 9, PTO).p
        p2 = plan_samples(method, grid, 9, SG).p
        assert np.array_equal(p1, p2), method


def test_every_time_has_nodes():
    grid = make_time_grid(0.01, 10.0, 9)
    for method, strategy in (("dehoog", SG), ("talbot", SLC), ("stehfest", PTO)):
        plan = plan_samples(method, grid, 7, strategy)
        covered = np.zeros(len(grid), dtype=bool)
        for g in plan.groups:
            assert g.node_indices.size > 0
            covered[g.time_indices] = True
        assert covered.all()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_simple_values():
    grid = TimeGrid(np.array([1.0]))
    plan = plan_samples("stehfest", grid, 2, PTO)
    samples = evaluate_image(plan, lambda p: 1.0 / p)
    assert np.allclose(samples.values, 1.0 / plan.p)
    # a 2-channel image keeps its channels, and exp(-0.08 p) / p its value
    # at p = -200, off every contour
    p = np.array([-200.0, 1.0], dtype=complex)
    plan = SamplePlan(method="talbot", grid=grid, p=p,
                      groups=(core.PlanGroup(params=alg.TalbotParams(1.0, p.size),
                                             node_indices=np.arange(p.size),
                                             time_indices=np.array([0])),),
                      raw_evaluations=p.size)
    samples = evaluate_image(plan, lambda p: np.array([np.exp(-0.08 * p) / p, 1.0]))
    assert samples.values.shape == (2, 2)
    assert abs(samples.values[0, 0]) == pytest.approx(math.exp(16.0) / 200.0, rel=1e-12)


def test_evaluate_counts_distinct_only():
    grid = TimeGrid(np.array([1.0, 2.0]))
    plan = plan_samples("stehfest", grid, 4, PTO)
    image = CountingImage(lambda p: 1.0 / p)
    evaluate_image(plan, image)
    assert image.calls == plan.total_evaluations == 6


def test_evaluate_error_carries_p():
    grid = TimeGrid(np.array([1.0]))
    plan = plan_samples("stehfest", grid, 2, PTO)

    def bad(p):
        raise RuntimeError("model blew up")

    with pytest.raises(ImageEvaluationError) as err:
        evaluate_image(plan, bad)
    assert err.value.p in plan.p


def test_evaluate_rejects_image_changing_shape():
    plan = plan_samples("talbot", make_time_grid(0.5, 2.0, 3), 8, SG)
    calls = []

    def image(p):
        calls.append(p)
        return np.array([1.0 / p, 2.0 / p]) if len(calls) == 1 else 1.0 / p

    with pytest.raises(ImageEvaluationError, match="shape") as err:
        evaluate_image(plan, image)
    assert err.value.p == plan.p[1]


def test_evaluate_calls_image_once_per_p_in_plan_order():
    plan = plan_samples("stehfest", make_time_grid(0.1, 10.0, 8), 12, PTO)
    calls = []

    def image(p):
        calls.append(p)
        return 1.0 / (p + 1.0)

    evaluate_image(plan, image)
    assert calls == plan.p.tolist()


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_evaluate_error_names_the_failing_p(position):
    plan = plan_samples("dehoog", make_time_grid(0.1, 10.0, 8), 31, SG)
    p_list = plan.p.tolist()
    failing = {"first": 0, "middle": len(p_list) // 2, "last": len(p_list) - 1}[position]
    cause = RuntimeError("model blew up")
    calls = []

    def image(p):
        calls.append(p)
        if len(calls) == failing + 1:
            raise cause
        return 1.0 / p

    with pytest.raises(ImageEvaluationError) as err:
        evaluate_image(plan, image)
    assert err.value.p == p_list[failing]
    assert err.value.__cause__ is cause
    assert calls == p_list[:failing + 1]


# ---------------------------------------------------------------------------
# inversion dispatch
# ---------------------------------------------------------------------------

def test_method_plan_mismatch():
    grid = make_time_grid(0.1, 1.0, 3)
    plan = plan_samples("talbot", grid, 8, SG)
    samples = evaluate_image(plan, lambda p: 1.0 / p)
    with pytest.raises(PlanMismatchError):
        invert_all("dehoog", samples, grid)
    other = make_time_grid(0.2, 2.0, 3)
    with pytest.raises(PlanMismatchError):
        invert_all("talbot", samples, other)


def _direct_inversion(method, samples, params):
    """The inverter of `invlap.algorithms`, called without core's table."""
    if method == "stehfest":
        return lambda t: (alg.stehfest_invert(samples, t, params), ())
    if method == "schapery":
        fit = alg.schapery_fit(samples, params)
        return lambda t: (alg.schapery_eval(fit, t), ())
    if method == "weeks":
        coeffs = alg.weeks_coefficients(samples, params)
        return lambda t: alg.weeks_eval(coeffs, params, t)
    if method == "talbot":
        return lambda t: alg.talbot_invert(samples, t, params)
    assert method == "dehoog"
    return lambda t: alg.dehoog_invert(samples, t, params)


@pytest.mark.parametrize("method", core.METHODS)
def test_dispatch_matches_algorithms(method):
    # invert_all through the method table equals, bit for bit, each
    # group's samples and params fed straight to invlap.algorithms
    assert harness.SHARED_METHODS == ("schapery", "weeks", "talbot", "dehoog")
    strategies = tuple(SamplingStrategy) if method in harness.SHARED_METHODS else (PTO,)
    for strategy in set(SamplingStrategy) - set(strategies):
        with pytest.raises(InvalidStrategyError):
            plan_samples(method, make_time_grid(0.1, 1.0, 3), 8, strategy)
    image = lambda p: np.array([1.0 / (p + 1.0), 1.0 / (p * p + 1.0)])
    grids = (make_time_grid(0.02, 20.0, 7, "logarithmic"),
             make_time_grid(0.25, 3.0, 7, "linear"))
    for grid in grids:
        # a Weeks or de Hoog abscissa sigma > 0 reaches the plan as params
        abscissa = {"weeks": alg.WeeksParams.rule_of_thumb(12, grid.t_max, 0.25),
                    "dehoog": alg.DeHoogParams.rule_of_thumb(12, grid.t_max, 0.25)}
        for strategy in strategies:
            for params in (None, abscissa[method]) if method in abscissa else (None,):
                plan = plan_samples(method, grid, 12, strategy, params)
                samples = evaluate_image(plan, image)
                result = invert_all(method, samples, grid)
                covered = np.zeros(len(grid), dtype=bool)
                for group in plan.groups:
                    invert = _direct_inversion(
                        method, samples.values[group.node_indices], group.params)
                    for ti in group.time_indices:
                        value, flags = invert(float(grid.times[ti]))
                        assert np.array_equal(result.values[ti], value), (strategy, ti)
                        assert result.flags[ti] == tuple(flags), (strategy, ti)
                        covered[ti] = True
                assert covered.all()


def test_cached_inverter_pieces_are_read_only():
    # every caller shares these arrays, so none may write to them
    params = alg.SchaperyParams.geometric(8, 0.1, 1.0)
    cached = (*alg._talbot_nodes(1.5, 12), alg.stehfest_weights(12),
              alg.stehfest_weights(20, allow_large=True),
              *alg._collocation(params.nodes)[:2],
              *alg._weeks_kernel(alg.WeeksParams.rule_of_thumb(8, 1.0)))
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert alg._talbot_nodes(1.5, 12)[0] is cached[0]
    assert alg.stehfest_weights(12) is cached[2]


def test_invert_one_over_p_everywhere():
    grid = make_time_grid(0.1, 2.0, 6)
    plan = plan_samples("dehoog", grid, 41, SG)
    samples = evaluate_image(plan, lambda p: 1.0 / p)
    result = invert_all("dehoog", samples, grid)
    # a shared contour loses some accuracy at the earliest times
    assert np.allclose(result.values, 1.0, atol=1e-4)
    assert np.allclose(result.values[3:], 1.0, atol=1e-6)


def test_zero_image_inverts_to_zero_all_methods():
    grid = make_time_grid(0.5, 5.0, 4)
    for method in core.METHODS:
        strategy = PTO if method == "stehfest" else SG
        plan = plan_samples(method, grid, 8, strategy)
        samples = evaluate_image(plan, lambda p: 0.0)
        result = invert_all(method, samples, grid)
        assert np.allclose(result.values, 0.0, atol=1e-13), method


def test_nonfinite_samples_give_flagged_nan():
    grid = TimeGrid(np.array([1.0]))
    plan = plan_samples("talbot", grid, 8, SG)
    samples = evaluate_image(plan, lambda p: np.inf if p.real < 0 else 1.0 / p)
    result = invert_all("talbot", samples, grid)
    assert math.isnan(result.values[0])
    assert alg.FLAG_NONFINITE_SAMPLES in result.flags[0]


def test_inversion_independent_of_evaluation_order():
    grid = make_time_grid(0.1, 10.0, 5)
    plan = plan_samples("weeks", grid, 16, SG)
    image = lambda p: 1.0 / (p + 2.0)
    samples = evaluate_image(plan, image)
    # manually shuffle-evaluate, then place values back in plan order
    order = np.random.default_rng(3).permutation(plan.total_evaluations)
    values = np.empty(plan.total_evaluations, dtype=complex)
    for i in order:
        values[i] = image(complex(plan.p[i]))
    shuffled = core.SampleSet(plan=plan, values=values)
    a = invert_all("weeks", samples, grid)
    b = invert_all("weeks", shuffled, grid)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# linearity / homogeneity properties
# ---------------------------------------------------------------------------

def _rational_image(poles, weights):
    def image(p):
        return sum(w / (p + q) for w, q in zip(weights, poles))
    return image


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_linear_methods_are_additive(seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.sort(rng.uniform(0.2, 5.0, 3)))
    poles = rng.uniform(0.1, 4.0, 2)
    wf = rng.uniform(-2.0, 2.0, 2)
    wg = rng.uniform(-2.0, 2.0, 2)
    ca, cb = rng.uniform(-3.0, 3.0, 2)
    f = _rational_image(poles, wf)
    g = _rational_image(poles, wg)
    combined = lambda p: ca * f(p) + cb * g(p)
    for method in ("stehfest", "schapery", "weeks", "talbot"):
        strategy = PTO if method == "stehfest" else SG
        plan = plan_samples(method, grid, 8, strategy)
        rf = invert_all(method, evaluate_image(plan, f), grid).values
        rg = invert_all(method, evaluate_image(plan, g), grid).values
        rc = invert_all(method, evaluate_image(plan, combined), grid).values
        scale = max(np.max(np.abs(rc)), 1.0)
        assert np.allclose(rc, ca * rf + cb * rg, atol=5e-12 * scale), method


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dehoog_scaling_homogeneity(seed):
    # the quotient-difference acceleration is non-linear (it is a Pade
    # approximant in the samples); it is degree-1 homogeneous in exact
    # arithmetic, but the table's internal cancellations amplify rounding,
    # so the numerical property only holds loosely
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.sort(rng.uniform(0.2, 5.0, 3)))
    poles = rng.uniform(0.1, 4.0, 2)
    f = _rational_image(poles, rng.uniform(0.5, 2.0, 2))
    c = rng.uniform(-3.0, 3.0)
    plan = plan_samples("dehoog", grid, 15, SG)
    rf = invert_all("dehoog", evaluate_image(plan, f), grid).values
    rc = invert_all("dehoog", evaluate_image(plan, lambda p: c * f(p)), grid).values
    assert np.allclose(rc, c * rf, rtol=1e-3, atol=1e-10)


def test_dehoog_additivity_fails_in_general():
    # documents the non-linearity of the accelerated Fourier series
    grid = TimeGrid(np.array([1.0]))
    plan = plan_samples("dehoog", grid, 15, SG)
    f = lambda p: 1.0 / (p + 0.3)
    g = lambda p: 1.0 / (p * p + 4.0)
    rf = invert_all("dehoog", evaluate_image(plan, f), grid).values
    rg = invert_all("dehoog", evaluate_image(plan, g), grid).values
    rc = invert_all("dehoog", evaluate_image(plan, lambda p: f(p) + g(p)),
                    grid).values
    assert abs(rc[0] - (rf[0] + rg[0])) > 1e-12


def test_all_methods_reproduce_unit_step():
    # with <= 20 terms every method recovers L^-1{1/p} = 1; the Laguerre
    # expansion's default scale b = N/t_max maps the pole at the origin to
    # radius (N+2)/(N-2), which caps its accuracy near the percent level,
    # so its bound is method-specific (see test_weeks for the exact-scale
    # variant that goes to machine precision)
    grid = make_time_grid(0.2, 2.0, 6)
    # per-method bounds and counts (all <= 20 terms): stehfest's N=16
    # weights reach ~1e10 so float cancellation leaves ~1e-7 noise even
    # though the weight identity is exact in rationals
    cases = {"stehfest": (15, 1e-6), "schapery": (15, 1e-9),
             "weeks": (20, 5e-2), "talbot": (19, 1e-4), "dehoog": (19, 1e-4)}
    for method, (terms, bound) in cases.items():
        strategy = PTO if method == "stehfest" else SG
        plan = plan_samples(method, grid, terms, strategy)
        result = invert_all(method, evaluate_image(plan, lambda p: 1.0 / p), grid)
        err = np.max(np.abs(result.values - 1.0))
        assert err < bound, (method, err)
