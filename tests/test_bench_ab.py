import importlib.util
import json
import subprocess
import sys
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


def _fake_run(checkout, workload, seed, seconds):
    wall = 1.0 + 0.01 * seed if checkout.name == "parent" else 0.8 + 0.01 * seed
    return {"metrics": {"wall_s": {"value": wall}, "image_calls": {"value": 166}},
            "failed": 0, "correct": True}


def test_json_record_of_the_runs(tmp_path, monkeypatch, capsys):
    spec = {"run_seconds": 2, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "image_calls", "better": "lower", "bound": 0.02}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    out = tmp_path / "ab.json"
    monkeypatch.setattr(bench_ab, "run", _fake_run)
    monkeypatch.setattr(sys, "argv", [
        "bench_ab.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--workload", "w", "--pairs", "3", "--first-seed", "5", "--json", str(out)])
    assert bench_ab.main() == 0
    assert "wall_s" in capsys.readouterr().out
    got = json.loads(out.read_text())
    assert (got["workload"], got["pairs"], got["seeds"], got["run_seconds"]) == ("w", 3, [5, 6, 7], 2)
    # neither directory is a git work tree
    assert got["commits"] == {side: {"sha": None, "dirty": None} for side in ("parent", "change")}
    wall = got["metrics"]["wall_s"]
    assert wall["parent"] == pytest.approx([1.05, 1.06, 1.07])
    assert wall["change"] == pytest.approx([0.85, 0.86, 0.87])
    expected = bench_ab.verdict(wall["parent"], wall["change"], "lower", 0.25)
    assert wall["verdict"] == json.loads(json.dumps(expected))
    assert wall["verdict"]["wins"] == 3
    assert got["metrics"]["image_calls"]["verdict"]["ties"] == 3
    assert got["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 0]}
    assert got["correct"] == {"parent": [True] * 3, "change": [True] * 3}


def test_commit_of_a_git_work_tree(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "f.txt").write_text("a\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    commit = bench_ab.commit_of(tmp_path)
    assert len(commit["sha"]) == 40 and commit["dirty"] is False
    (tmp_path / "new.txt").write_text("untracked files do not count\n")
    assert bench_ab.commit_of(tmp_path)["dirty"] is False
    (tmp_path / "f.txt").write_text("b\n")
    assert bench_ab.commit_of(tmp_path) == {"sha": commit["sha"], "dirty": True}


def test_level_ok_allows_a_loss_inside_the_parent_spread():
    # the parent's interquartile range is 0.045
    v = bench_ab.verdict(_PARENT, [x + 0.04 for x in _PARENT], "lower", 0.25)
    assert (v["wins"], v["gap_ok"], v["level_ok"]) == (0, False, True)
    v = bench_ab.verdict(_PARENT, [x + 0.05 for x in _PARENT], "lower", 0.25)
    assert v["level_ok"] is False


def test_experiments_mode_alternates_fresh_runs(tmp_path, monkeypatch, capsys):
    spec = {"run_seconds": 2, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_experiment(checkout, experiment):
        calls.append((checkout.name, experiment))
        base = {"A": 2.0, "B": 0.8}[experiment] + 0.01 * len(calls)
        return base if checkout.name == "parent" else base + 0.001

    out = tmp_path / "ab.json"
    monkeypatch.setattr(bench_ab, "run_experiment", fake_experiment)
    monkeypatch.setattr(bench_ab, "run", None)
    monkeypatch.setattr(sys, "argv", [
        "bench_ab.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--experiments", "A,B", "--runs", "3", "--json", str(out)])
    assert bench_ab.main() == 0
    printed = capsys.readouterr().out
    assert "A " in printed and "B " in printed
    # each run times every experiment on both sides, the first side swapping
    assert calls == [("parent", "A"), ("change", "A"), ("parent", "B"), ("change", "B"),
                     ("change", "A"), ("parent", "A"), ("change", "B"), ("parent", "B"),
                     ("parent", "A"), ("change", "A"), ("parent", "B"), ("change", "B")]
    got = json.loads(out.read_text())
    assert (got["experiments"], got["runs"]) == (["A", "B"], 3)
    a = got["metrics"]["A"]
    assert a["parent"] == pytest.approx([2.01, 2.06, 2.09])
    assert a["change"] == pytest.approx([2.021, 2.051, 2.101])
    assert a["verdict"] == json.loads(json.dumps(
        bench_ab.verdict(a["parent"], a["change"], "lower", 0.25)))
    assert a["verdict"]["wins"] == 1


def test_experiment_run_times_one_experiment_in_its_checkout(tmp_path):
    # a stub invlap in the checkout's src stands in for the real one
    package = tmp_path / "src" / "invlap"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "harness.py").write_text(
        "import pathlib\n"
        "class ExperimentConfig:\n"
        "    def __init__(self, experiment):\n"
        "        self.experiment = experiment\n"
        "def run_experiment(config):\n"
        "    pathlib.Path('ran.txt').write_text(config.experiment)\n")
    wall = bench_ab.run_experiment(tmp_path, "C")
    assert 0 <= wall < 5 and (tmp_path / "ran.txt").read_text() == "C"
