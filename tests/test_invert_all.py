"""`invert_all` inverts a whole plan in one pass per method, bit for bit
as inverting one plan group at a time (``reference_invert``)."""

import math
import tracemalloc

import numpy as np
import pytest
import reference_invert

from invlap import algorithms as alg
from invlap import core, oracles
from invlap.core import (PlanGroup, PlanMismatchError, SamplePlan, SamplingStrategy,
                         TimeGrid, evaluate_image, invert_all, make_time_grid,
                         plan_samples)

PTO = SamplingStrategy.PER_TIME_OPTIMAL
SLC = SamplingStrategy.SHARED_PER_LOG_CYCLE
SG = SamplingStrategy.SHARED_GLOBAL

#: The common time scales, method orders and strategies of the benchmark's
#: pairs-dense workload.
PAIR_SCALES = tuple(0.965 + 0.01 * k for k in range(8))
PAIR_TERMS = {"stehfest": 16, "schapery": 16, "weeks": 32, "talbot": 32, "dehoog": 41}
PAIR_STRATEGIES = (PTO, SLC)


def _pairs_dense_grids(scale):
    h = 0.11 * scale
    return (make_time_grid(0.0125 * scale, 9.0 * scale, 16, "logarithmic"),
            TimeGrid(h * np.arange(1, 17), "linear"))


def _strategies(method, choices=tuple(SamplingStrategy)):
    return (PTO,) if method in core.PER_TIME_METHODS else choices


def _assert_matches_reference(method, samples, grid):
    new = invert_all(method, samples, grid)
    ref = reference_invert.invert_all(method, samples, grid)
    assert new.flags == ref.flags
    assert new.values.shape == ref.values.shape
    assert np.array_equal(new.values, ref.values, equal_nan=True)
    return new


@pytest.mark.parametrize("scale", PAIR_SCALES)
def test_pair_catalog_matches_per_group_reference(scale):
    for grid in _pairs_dense_grids(scale):
        for method, terms in PAIR_TERMS.items():
            for strategy in _strategies(method, PAIR_STRATEGIES):
                plan = plan_samples(method, grid, terms, strategy)
                for pair in oracles.pair_catalog():
                    _assert_matches_reference(method, evaluate_image(plan, pair.image), grid)


#: Caller-supplied parameters, one set for every group of a plan.
FIXED_PARAMS = {
    "stehfest": alg.StehfestParams(12),
    "schapery": alg.SchaperyParams.geometric(10, 0.05, 5.0),
    "weeks": alg.WeeksParams.rule_of_thumb(16, 5.0, 0.25),
    "talbot": alg.TalbotParams.rule_of_thumb(16, 5.0),
    "dehoog": alg.DeHoogParams.rule_of_thumb(21, 5.0, 0.25),
}


@pytest.mark.parametrize("method", core.METHODS)
@pytest.mark.parametrize("channels", (1, 2))
def test_strategies_channels_and_params_match_reference(method, channels):
    def image(p):
        one = 1.0 / (p + 1.0) + 1.0 / (p * p + 4.0)
        return one if channels == 1 else np.array([one, np.exp(-0.1 * p) / p])

    grids = (make_time_grid(0.02, 20.0, 9, "logarithmic"),
             make_time_grid(0.25, 3.0, 7, "linear"))
    for grid in grids:
        for strategy in _strategies(method):
            for params in (None, FIXED_PARAMS[method]):
                plan = plan_samples(method, grid, 12, strategy, params)
                result = _assert_matches_reference(method, evaluate_image(plan, image), grid)
                assert result.values.shape == (len(grid),) + ((2,) if channels == 2 else ())


def test_nan_at_shared_stehfest_node_flags_exactly_its_two_times():
    # on a linear grid t_i = i h, node 7 ln2 / h is k = 7 of t_1 and k = 14
    # of t_2, and no other time's; dedup evaluates it once
    h = 0.11
    grid = TimeGrid(h * np.arange(1, 17), "linear")
    plan = plan_samples("stehfest", grid, 16, PTO)
    bad = 7.0 * alg.LN2 / h
    shared = np.flatnonzero(np.abs(plan.p - bad) <= 1e-12 * bad)
    assert shared.size == 1
    readers = [g.time_indices[0] for g in plan.groups if shared[0] in g.node_indices]
    assert readers == [0, 1]

    image = lambda p: math.nan if abs(p - bad) <= 1e-12 * bad else 1.0 / (p + 1.0)
    result = _assert_matches_reference("stehfest", evaluate_image(plan, image), grid)
    flagged = [i for i, f in enumerate(result.flags) if f]
    assert flagged == [0, 1]
    assert all(result.flags[i] == (alg.FLAG_NONFINITE_SAMPLES,) for i in flagged)
    assert np.all(np.isnan(result.values[:2])) and np.all(np.isfinite(result.values[2:]))


def test_dehoog_breakdown_in_one_column_falls_back_alone(monkeypatch):
    # gamma0 falls with t, so only the first time's group samples the
    # second channel where it is zero, and only that column breaks down
    grid = make_time_grid(0.0125, 9.0, 16, "logarithmic")
    plan = plan_samples("dehoog", grid, 41, PTO)
    gammas = [g.params.gamma0 for g in plan.groups]
    cut = 0.5 * (gammas[0] + gammas[1])
    image = lambda p: np.array([1.0 / (p + 1.0), 0.0 if p.real > cut else 1.0 / (p + 0.5)])
    samples = evaluate_image(plan, image)

    fallbacks = []
    direct = alg._dehoog_direct

    def recording(a, t, params):
        fallbacks.append((a.copy(), t))
        return direct(a, t, params)

    monkeypatch.setattr(alg, "_dehoog_direct", recording)
    result = invert_all("dehoog", samples, grid)
    assert result.flags == ((alg.FLAG_QD_FALLBACK,),) + ((),) * 15
    assert len(fallbacks) == 1
    column, t = fallbacks[0]
    assert t == grid.times[0] and not np.any(column)
    assert result.values[0, 1] == 0.0
    monkeypatch.undo()
    _assert_matches_reference("dehoog", samples, grid)


def test_talbot_tail_and_exp_overflow_times_match_reference():
    # the delayed step's quadrature tail does not decay before its delay
    grid = make_time_grid(0.01, 10.0, 12, "logarithmic")
    delayed = oracles.pair_catalog()[-1].image
    image = lambda p: np.array([delayed(p), 1.0 / (p + 1.0)])
    seen = set()
    for strategy in SamplingStrategy:
        plan = plan_samples("talbot", grid, 24, strategy)
        result = _assert_matches_reference("talbot", evaluate_image(plan, image), grid)
        seen.update(f for flags in result.flags for f in flags)
    assert alg.FLAG_TALBOT_TAIL in seen

    # r t passes the exp limit at t = 10 only
    grid = TimeGrid(np.array([1.0, 5.0, 10.0]))
    plan = plan_samples("talbot", grid, 24, SG, alg.TalbotParams(r=100.0, n_nodes=24))
    for img in (delayed, image):
        result = _assert_matches_reference("talbot", evaluate_image(plan, img), grid)
        assert result.flags[2] == (alg.FLAG_EXP_OVERFLOW,)
        assert np.all(np.isnan(result.values[2]))


@pytest.mark.parametrize("method", ("weeks", "dehoog"))
def test_exp_overflow_times_match_reference(method):
    # gamma0 t, or kappa t, passes the exp limit at the last time only
    grid = make_time_grid(0.5, 2.0, 5)
    params = {"weeks": alg.WeeksParams, "dehoog": alg.DeHoogParams}[method].rule_of_thumb(
        15, grid.t_max, sigma=400.0)
    for strategy in SamplingStrategy:
        plan = plan_samples(method, grid, 15, strategy, params)
        result = _assert_matches_reference(method, evaluate_image(plan, lambda p: 1.0 / p), grid)
        assert result.flags[-1] == (alg.FLAG_EXP_OVERFLOW,)


@pytest.mark.parametrize("method", ("talbot", "weeks"))
def test_pairs_summed_in_chunks_round_as_in_one_step(method, monkeypatch):
    # 40 times in chunks of 3 pairs, with talbot-tail and exp-overflow times
    grid = make_time_grid(0.01, 10.0, 40, "logarithmic")
    delayed = oracles.pair_catalog()[-1].image
    image = lambda p: np.array([delayed(p), 1.0 / (p + 1.0)])
    fixed = {"talbot": alg.TalbotParams(r=100.0, n_nodes=24),
             "weeks": alg.WeeksParams.rule_of_thumb(24, 10.0, 100.0)}[method]
    runs = [(plan, evaluate_image(plan, image))
            for strategy in SamplingStrategy for params in (None, fixed)
            for plan in [plan_samples(method, grid, 24, strategy, params)]]
    whole = [invert_all(method, samples, grid) for _, samples in runs]
    monkeypatch.setattr(alg, "_PAIR_CHUNK", 3)
    seen = set()
    for (plan, samples), one in zip(runs, whole):
        chunked = invert_all(method, samples, grid)
        assert chunked.flags == one.flags
        assert np.array_equal(chunked.values, one.values, equal_nan=True)
        seen.update(f for flags in chunked.flags for f in flags)
    assert alg.FLAG_EXP_OVERFLOW in seen


@pytest.mark.parametrize("method, bound", (("talbot", 12e6), ("weeks", 5e6)))
def test_long_shared_grid_scratch_memory_is_bounded_by_the_chunk(method, bound):
    # in one array step, 20,000 times of 31-33 nodes and 2 channels peaked
    # at 74 MB (Talbot) and 14 MB (Weeks); chunked, 8.3 and 2.6 MB
    grid = make_time_grid(0.01, 10.0, 20000, "logarithmic")
    plan = plan_samples(method, grid, 32, SG)
    samples = evaluate_image(plan, lambda p: np.array([1.0 / (p + 1.0), 1.0 / (p * p + 4.0)]))
    tracemalloc.start()
    try:
        invert_all(method, samples, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_per_time_dehoog_plan_builds_its_tables_in_one_call(monkeypatch):
    grid = make_time_grid(0.0125, 9.0, 16, "logarithmic")
    plan = plan_samples("dehoog", grid, 41, PTO)
    assert len(plan.groups) == 16
    samples = evaluate_image(plan, lambda p: 1.0 / (p + 1.0))
    calls = []
    qd = alg._qd_coefficients

    def counting(a):
        calls.append(a.shape)
        return qd(a)

    monkeypatch.setattr(alg, "_qd_coefficients", counting)
    invert_all("dehoog", samples, grid)
    assert calls == [(41, 16)]


def test_groups_of_different_node_counts_are_rejected():
    # one order plans every group, so only a hand-built plan can mix them
    grid = TimeGrid(np.array([1.0, 2.0]))
    params = (alg.StehfestParams(4), alg.StehfestParams(6))
    p = np.concatenate([alg.stehfest_nodes(t, par) for t, par in zip(grid.times, params)])
    groups = (PlanGroup(params[0], np.arange(4), np.array([0])),
              PlanGroup(params[1], np.arange(4, 10), np.array([1])))
    plan = SamplePlan("stehfest", grid, p.astype(complex), groups, p.size)
    with pytest.raises(PlanMismatchError, match="node count"):
        invert_all("stehfest", evaluate_image(plan, lambda p: 1.0 / p), grid)


def _clean(method, plan):
    return invert_all(method, evaluate_image(plan, lambda p: 1.0 / p), plan.grid)


def _assert_only_group_fails(method, plan, samples, bad_group, clean):
    """The bad group's times are a flagged NaN; every other time has the
    bits and flags of the plan inverted in one pass from clean samples."""
    result = invert_all(method, samples, plan.grid)
    bad = set(plan.groups[bad_group].time_indices.tolist())
    assert bad
    for i in range(len(plan.grid)):
        if i in bad:
            assert result.flags[i] == (core.FLAG_INVERSION_FAILED,)
            assert np.all(np.isnan(result.values[i]))
        else:
            assert result.flags[i] == clean.flags[i]
            assert np.array_equal(result.values[i], clean.values[i])


def _complex_in_group(plan, group):
    nodes = plan.groups[group].node_indices
    assert not any(np.isin(nodes, g.node_indices).any()
                   for i, g in enumerate(plan.groups) if i != group)
    samples = evaluate_image(plan, lambda p: 1.0 / p)
    samples.values[nodes] += 1j
    return samples


def test_complex_samples_of_one_schapery_group_fail_it_alone():
    grid = make_time_grid(0.01, 10.0, 7, "logarithmic")
    plan = plan_samples("schapery", grid, 12, SLC)
    assert len(plan.groups) == 4
    _assert_only_group_fails("schapery", plan, _complex_in_group(plan, 0), 0,
                             _clean("schapery", plan))


def test_one_complex_stehfest_time_fails_alone():
    grid = make_time_grid(0.1, 1.0, 5, "logarithmic")
    plan = plan_samples("stehfest", grid, 12, PTO)
    _assert_only_group_fails("stehfest", plan, _complex_in_group(plan, 2), 2,
                             _clean("stehfest", plan))


def test_singular_schapery_group_fails_alone(monkeypatch):
    grid = make_time_grid(0.01, 10.0, 7, "logarithmic")
    plan = plan_samples("schapery", grid, 12, SLC)
    samples = evaluate_image(plan, lambda p: 1.0 / p)
    clean = _clean("schapery", plan)
    bad_nodes = plan.groups[1].params.nodes
    collocation = alg._collocation

    def singular(nodes):
        lu, ipiv, info, cond = collocation(nodes)
        return lu, ipiv, 1 if nodes == bad_nodes else info, cond

    monkeypatch.setattr(alg, "_collocation", singular)
    with pytest.raises(alg.SingularFitError):
        alg.schapery_fit(samples.values[plan.groups[1].node_indices], plan.groups[1].params)
    _assert_only_group_fails("schapery", plan, samples, 1, clean)
