import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

#: ten parent runs with quartiles 1.0225 and 1.0675 around a median of 1.045
_PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_clear_gain_is_a_claim():
    v = bench_ab.verdict(_PARENT, [x - 0.2 for x in _PARENT], "lower", 0.25)
    assert (v["wins"], v["ties"], v["wins_ok"], v["gap_ok"]) == (10, 0, True, True)
    assert v["bound"] == "within"
    assert v["parent"] == pytest.approx((1.0225, 1.045, 1.0675))
    assert v["change"][1] == pytest.approx(0.845)


def test_ties_count_for_neither_side():
    # one tie leaves 9 wins of 10, still nine tenths; two leave 8
    new = [x - 0.2 for x in _PARENT]
    new[0] = _PARENT[0]
    v = bench_ab.verdict(_PARENT, new, "lower", 0.25)
    assert (v["wins"], v["ties"], v["wins_ok"]) == (9, 1, True)
    new[1] = _PARENT[1]
    v = bench_ab.verdict(_PARENT, new, "lower", 0.25)
    assert (v["wins"], v["ties"], v["wins_ok"]) == (8, 2, False)


def test_gap_inside_the_parent_spread_is_no_claim():
    # every pair won, but by less than the parent's interquartile range
    v = bench_ab.verdict(_PARENT, [x - 0.01 for x in _PARENT], "lower", 0.25)
    assert (v["wins_ok"], v["gap_ok"]) == (True, False)


def test_higher_is_better_flips_the_sign():
    v = bench_ab.verdict(_PARENT, [x + 0.2 for x in _PARENT], "higher", 0.25)
    assert (v["wins"], v["wins_ok"], v["gap_ok"], v["bound"]) == (10, True, True, "within")
    v = bench_ab.verdict(_PARENT, [x - 0.5 for x in _PARENT], "higher", 0.25)
    assert (v["wins"], v["gap_ok"], v["bound"]) == (0, False, "outside")


def test_bound_is_relative_to_the_parent_median():
    # worse by 20% and by 30% of the parent's median, against a 25% bound
    v = bench_ab.verdict(_PARENT, [1.2 * x for x in _PARENT], "lower", 0.25)
    assert (v["wins"], v["bound"]) == (0, "within")
    v = bench_ab.verdict(_PARENT, [1.3 * x for x in _PARENT], "lower", 0.25)
    assert v["bound"] == "outside"


def test_parent_spread_wider_than_the_bound_is_unresolved():
    # an interquartile range of 0.045 against a bound of 2% of 1.045
    v = bench_ab.verdict(_PARENT, list(_PARENT), "lower", 0.02)
    assert (v["ties"], v["bound"]) == (10, "unresolved")


def test_equal_counts_stay_within_a_tight_bound():
    v = bench_ab.verdict([166] * 10, [166] * 10, "lower", 0.02)
    assert (v["wins"], v["ties"], v["wins_ok"], v["gap_ok"], v["bound"]) == (
        0, 10, False, False, "within")
    v = bench_ab.verdict([166] * 10, [170] * 10, "lower", 0.02)
    assert v["bound"] == "outside"
