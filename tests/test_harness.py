import io
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from invlap import bem, cli, harness, oracles
from invlap.core import (METHODS, PER_TIME_METHODS, ImageEvaluationError,
                         SamplingStrategy, evaluate_image, make_time_grid,
                         plan_samples)

TINY = dict(n_times=5, n_per_unit=2, terms=5)


@pytest.fixture(scope="module")
def tiny_a():
    return harness.run_experiment(harness.ExperimentConfig(experiment="A", **TINY))


def test_config_defaults_resolved():
    cfg = harness.ExperimentConfig(experiment="B").resolved()
    assert "stehfest" not in cfg.methods
    assert cfg.terms == 51
    cfg = harness.ExperimentConfig(experiment="A").resolved()
    assert cfg.methods == METHODS
    assert cfg.terms == 9


def test_stehfest_rejected_in_shared_experiments():
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig(experiment="B",
                                 methods=("stehfest", "dehoog")).resolved()


def test_unknown_experiment_and_method():
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig(experiment="Z").resolved()
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig(experiment="A", methods=("piessens",)).resolved()
    with pytest.raises(harness.ConfigError, match="'talbot' is named twice"):
        harness.ExperimentConfig(experiment="B", methods=("talbot", "dehoog", "talbot")).resolved()
    with pytest.raises(harness.ConfigError, match="'dehoog' is named twice"):
        harness.run_pairs_benchmark(("dehoog", "dehoog"), (), None, make_time_grid(0.1, 1.0, 2))


def test_negative_terms_rejected(tmp_path):
    # 0 means "default" (the CLI passes it when --terms is absent)
    with pytest.raises(harness.ConfigError, match="terms"):
        harness.ExperimentConfig(experiment="A", terms=-7).resolved()
    assert cli.main(["--experiment", "A", "--terms", "-7", "--times", "3",
                     "--mesh-density", "2", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("point", [(-1.0, 1.0), (3.5, 1.0), (math.nan, 1.0)])
def test_observation_outside_mesh_rejected(point, monkeypatch):
    def no_solve(*args):
        raise AssertionError("a BEM solve ran for a bad observation point")

    monkeypatch.setattr(bem, "assemble", no_solve)
    config = harness.ExperimentConfig(experiment="A", observation=point, **TINY)
    with pytest.raises(harness.ConfigError, match="observation"):
        harness.run_experiment(config)


def test_t_min_below_crank_nicolson_step_rejected_before_any_solve(tmp_path, capsys,
                                                                   monkeypatch):
    def no_solve(*args):
        raise AssertionError("a BEM solve ran for a t_min the reference cannot reach")

    monkeypatch.setattr(bem, "assemble", no_solve)
    config = harness.ExperimentConfig(experiment="A", t_min=0.0005, t_max=1.0, **TINY)
    with pytest.raises(harness.ConfigError, match="Crank-Nicolson reference step 0.001"):
        harness.run_experiment(config)
    assert cli.main(["--experiment", "B", "--t-range", "0.0005:1",
                     "--out", str(tmp_path)]) == 2
    assert "Crank-Nicolson" in capsys.readouterr().err


def test_bem_image_counts_solves():
    mesh = bem.benchmark_rectangle_mesh(2)
    image = harness.BemImage(mesh, (1.0, 1.0), oracles.HEAVISIDE)
    v1 = image(1.0 + 0.0j)
    image(2.0 + 1.0j)
    assert (image.calls, image.solves) == (2, 2)
    assert v1.shape == (2,)
    # another image on the same mesh and point reuses the solve at p = 1
    other = harness.BemImage(mesh, (1.0, 1.0), oracles.COSINE4T)
    other(1.0 + 0.0j)
    assert np.array_equal(other(3.0), other(3.0))
    assert (other.calls, other.solves) == (3, 1)


def test_full_transfer_memo_still_solves(monkeypatch):
    monkeypatch.setattr(harness, "_TRANSFERS_PER_KEY", 1)
    image = harness.BemImage(bem.benchmark_rectangle_mesh(2), (1.0, 1.0), oracles.HEAVISIDE)
    first = [image(p) for p in (1.0 + 0.0j, 2.0 + 1.0j)]
    again = [image(p) for p in (1.0 + 0.0j, 2.0 + 1.0j)]
    # only the first p was stored
    assert (image.calls, image.solves) == (4, 3)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def _serial_transfer(mesh, point, p):
    # one solve with the kernels evaluated by assemble and eval_interior
    solution = bem.solve_boundary(bem.assemble(mesh, np.sqrt(p)), mesh)
    phi, grad, _ = bem.eval_interior(solution, mesh, point)
    return np.array([phi, -grad[0]])


def _uncached_image(mesh, point, behavior, p):
    # the image without any memo: one solve, then the behavior's image
    return _serial_transfer(mesh, point, p) * behavior.image(p)


def test_cached_transfer_bit_identical_warm_and_cold():
    grid = make_time_grid(0.1, 1.0, 3, "logarithmic")
    p = np.concatenate([
        plan_samples(m, grid, 6, SamplingStrategy.PER_TIME_OPTIMAL if m in PER_TIME_METHODS
                     else SamplingStrategy.SHARED_GLOBAL).p
        for m in METHODS])
    distinct = len({complex(v) for v in p})
    mesh = bem.benchmark_rectangle_mesh(2)
    point = (0.6, 0.9)
    for behavior, cold_solves in ((oracles.HEAVISIDE, distinct), (oracles.COSINE4T, 0)):
        for solves in (cold_solves, 0):
            image = harness.BemImage(mesh, point, behavior)
            for v in p:
                assert np.array_equal(image(complex(v)),
                                      _uncached_image(mesh, point, behavior, complex(v)))
            assert image.calls == p.size
            assert image.solves == solves


def test_shared_experiments_solve_each_p_once():
    # experiments B, C and D plan identical p vectors
    harness._benchmark_mesh.cache_clear()
    harness._transfers.cache_clear()
    runs = []
    for experiment in "BCD":
        config = harness.ExperimentConfig(
            experiment, t_min=0.01, t_max=1.0, terms=15, n_per_unit=2,
            observation=(0.6, 0.9))
        runs += harness.run_experiment(config).runs.values()
    assert all(r.evaluations_measured == r.evaluations_planned for r in runs)
    assert sum(r.evaluations_measured for r in runs) == 180
    assert sum(r.model_solves for r in runs) == 60
    assert sum(r.model_solves for r in runs[4:]) == 0


def test_cold_cache_threaded_evaluation_bit_identical(monkeypatch):
    # every run starts on a freshly built mesh and solves its p in chunks
    # of one p, three p or the whole plan; the Talbot and de Hoog plans
    # mix real and complex q
    grid = make_time_grid(0.1, 1.0, 3, "logarithmic")
    point = (0.6, 0.9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for method in ("talbot", "dehoog"):
            plan = plan_samples(method, grid, 12, SamplingStrategy.SHARED_GLOBAL)
            p = plan.p.tolist()
            assert 0 < sum(v.imag == 0 for v in p) < len(p)
            for density in (2, 4):
                mesh = bem.benchmark_rectangle_mesh(density)
                expected = [_uncached_image(mesh, point, oracles.HEAVISIDE, v) for v in p]
                row = bem.kernel_arguments(mesh, point)
                for rows in (1, 3, len(p)):
                    monkeypatch.setattr(harness, "_KERNEL_BLOCK_POINTS", rows * row)
                    for workers in (2, 4):
                        image = harness.BemImage(bem.benchmark_rectangle_mesh(density), point,
                                                 oracles.HEAVISIDE)
                        image.solve_ahead(p, workers)
                        assert image.solves == plan.total_evaluations
                        values = evaluate_image(plan, image).values
                        assert image.calls == image.solves == plan.total_evaluations
                        assert np.array_equal(values, expected)
    finally:
        sys.setswitchinterval(interval)


def test_solve_ahead_builds_the_mesh_geometry_before_its_threads(monkeypatch):
    built = []
    layer_quadrature = bem._layer_quadrature

    def recorded(*args):
        built.append(threading.current_thread() is threading.main_thread())
        return layer_quadrature(*args)

    monkeypatch.setattr(bem, "_layer_quadrature", recorded)
    plan = plan_samples("talbot", make_time_grid(0.1, 1.0, 3, "logarithmic"), 12,
                        SamplingStrategy.SHARED_GLOBAL)
    image = harness.BemImage(bem.benchmark_rectangle_mesh(2), (0.6, 0.9), oracles.HEAVISIDE)
    image.solve_ahead(plan.p.tolist(), 2)
    # the assembly quadrature and the observation point's, both here
    assert image.solves == plan.total_evaluations and built == [True, True]


def _record_kernel_sizes(monkeypatch) -> list:
    sizes = []
    k01_values = bem.k01_values

    def recorded(z):
        sizes.append(np.size(z))
        return k01_values(z)

    monkeypatch.setattr(bem, "k01_values", recorded)
    return sizes


# numpy warns on the square root of a NaN p, as every solve of one does
@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt:RuntimeWarning")
def test_bad_p_does_not_spoil_its_kernel_block(monkeypatch):
    # p = 0 and -1 give Re(q) = 0, NaN and inf give non-finite kernels; a
    # good real p next to inf keeps its real kernels
    good = [1.0, 2.0 + 1.0j, 0.5, 1e300, 3.0 - 2.0j, 4.0, 0.25 + 8.0j]
    bad = [0.0, math.nan, math.inf, -1.0, 1e300 + 1e300j]
    p = [complex(v) for pair in zip(good, bad + [None] * 2) for v in pair if v is not None]
    point = (0.6, 0.9)
    mesh = bem.benchmark_rectangle_mesh(2)
    row = bem.kernel_arguments(mesh, point)
    plan = plan_samples("talbot", make_time_grid(0.1, 1.0, 3, "logarithmic"), 5,
                        SamplingStrategy.SHARED_GLOBAL)
    sizes = _record_kernel_sizes(monkeypatch)
    for rows in (3, len(p)):
        monkeypatch.setattr(harness, "_KERNEL_BLOCK_POINTS", rows * row)
        harness._transfers.cache_clear()
        image = harness.BemImage(mesh, point, oracles.HEAVISIDE)
        sizes.clear()
        image.solve_ahead(p, 2)
        assert image.solves == len(good)
        # the stacks that hold a bad p raise, and their p are solved alone
        assert 0 < max(sizes) <= rows * row
        transfers = harness._transfers(mesh, point)
        for v in good:
            transfer, _ = transfers[np.complex128(v).tobytes()]
            expected = _serial_transfer(mesh, point, v)
            assert transfer.dtype == expected.dtype
            assert np.array_equal(transfer, expected)
        for v in bad:
            assert np.complex128(v).tobytes() not in transfers
            with pytest.raises(ImageEvaluationError) as err:
                evaluate_image(replace(plan, p=np.array([v])), image)
            assert np.complex128(err.value.p).tobytes() == np.complex128(v).tobytes()


def test_kernel_blocks_stay_within_their_point_bound(monkeypatch):
    grid = make_time_grid(0.1, 1.0, 3, "logarithmic")
    plan = plan_samples("dehoog", grid, 41, SamplingStrategy.SHARED_GLOBAL)
    point = (0.6, 0.9)
    sizes = _record_kernel_sizes(monkeypatch)
    for density, bound in ((2, harness._KERNEL_BLOCK_POINTS), (2, 5000), (4, 100)):
        monkeypatch.setattr(harness, "_KERNEL_BLOCK_POINTS", bound)
        mesh = bem.benchmark_rectangle_mesh(density)
        row = bem.kernel_arguments(mesh, point)
        image = harness.BemImage(mesh, point, oracles.HEAVISIDE)
        sizes.clear()
        image.solve_ahead(plan.p.tolist(), 2)
        assert image.solves == plan.total_evaluations
        # one assembly and one interior call per chunk; the one real p
        # of the plan may split a chunk in two
        rows = max(1, bound // row)
        assert len(sizes) <= 2 * (2 * -(-plan.total_evaluations // (2 * rows)) + 1)
        assert max(sizes) <= max(bound, row)
        assert sum(sizes) == plan.total_evaluations * row


def _count_thread_starts(monkeypatch) -> list:
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def test_one_worker_starts_no_thread(monkeypatch):
    # one worker runs the chunks of two workers' path inline, to the bit
    harness._transfers.cache_clear()
    threaded = harness.run_experiment(harness.ExperimentConfig(experiment="A", **TINY))

    def refuse(self):
        raise AssertionError(f"thread {self.name!r} started")

    chunk_sizes = []
    solve_chunk = harness.BemImage._solve_chunk

    def recorded(self, p_values):
        chunk_sizes.append(len(p_values))
        return solve_chunk(self, p_values)

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(harness.BemImage, "_solve_chunk", recorded)
    harness._benchmark_mesh.cache_clear()
    harness._transfers.cache_clear()
    result = harness.run_experiment(harness.ExperimentConfig(experiment="A", workers=1, **TINY))
    assert set(result.runs) == set(METHODS)
    assert sum(run.model_solves for run in result.runs.values()) > 0
    assert max(chunk_sizes) > 1
    for method, run in result.runs.items():
        other = threaded.runs[method]
        assert run.potential.tobytes() == other.potential.tobytes()
        assert run.flux.tobytes() == other.flux.tobytes()
        assert (run.flags, run.model_solves) == (other.flags, other.model_solves)


def test_solve_ahead_threads_only_the_missing_solves(monkeypatch):
    harness._benchmark_mesh.cache_clear()
    harness._transfers.cache_clear()
    config = harness.ExperimentConfig("B", methods=("talbot",), **TINY)
    started = _count_thread_starts(monkeypatch)
    cold = harness.run_experiment(config).runs["talbot"]
    assert started and cold.model_solves == cold.evaluations_planned
    started.clear()
    warm = harness.run_experiment(config).runs["talbot"]
    assert started == [] and warm.model_solves == 0
    assert np.array_equal(warm.potential, cold.potential)


def test_solve_ahead_keeps_the_memo_bound_and_the_solve_count(monkeypatch):
    grid = make_time_grid(0.1, 1.0, 3, "logarithmic")
    plan = plan_samples("talbot", grid, 5, SamplingStrategy.SHARED_GLOBAL)
    mesh = bem.benchmark_rectangle_mesh(2)
    monkeypatch.setattr(harness, "_TRANSFERS_PER_KEY", 3)
    image = harness.BemImage(mesh, (0.6, 0.9), oracles.HEAVISIDE)
    image.solve_ahead(plan.p.tolist(), 2)
    assert image.solves == 3
    values = evaluate_image(plan, image).values
    # the two p past the bound are solved, unstored, by the image calls
    assert (image.calls, image.solves) == (5, 5)
    assert len(harness._transfers(mesh, (0.6, 0.9))) == 3
    for v, value in zip(plan.p.tolist(), values):
        assert np.array_equal(value, _uncached_image(mesh, (0.6, 0.9), oracles.HEAVISIDE, v))


def test_failed_solve_ahead_raises_at_its_p(monkeypatch):
    harness._benchmark_mesh.cache_clear()
    harness._transfers.cache_clear()
    config = harness.ExperimentConfig("B", methods=("talbot",), **TINY)
    plan = plan_samples("talbot", make_time_grid(0.01, 10.0, 5, "logarithmic"), 5,
                        SamplingStrategy.SHARED_GLOBAL)
    bad_q = np.sqrt(plan.p[2])
    solve = bem.solve_boundary
    cause = RuntimeError("singular system")
    bad_solves = []

    def failing(system, mesh):
        if bad_q in np.atleast_1d(system.q):
            bad_solves.append(system.q)
            raise cause
        return solve(system, mesh)

    monkeypatch.setattr(bem, "solve_boundary", failing)
    with pytest.raises(ImageEvaluationError) as err:
        harness.run_experiment(config)
    assert err.value.p == plan.p[2]
    assert err.value.__cause__ is cause
    # ahead, in a thread: in its chunk's stack, then alone; and once more
    # by the image call that raises
    assert len(bad_solves) == 3
    assert np.size(bad_solves[0]) > 1 and all(np.size(q) == 1 for q in bad_solves[1:])


def test_experiment_accounting_and_flags(tiny_a):
    for method, run in tiny_a.runs.items():
        assert run.evaluations_measured == run.evaluations_planned
        expected_raw = 5 * (6 if method == "stehfest" else 5)
        assert run.evaluations_raw == expected_raw
        assert run.model_solves <= run.evaluations_measured
        assert not any(bem.FLAG_NEAR_BOUNDARY in f for f in run.flags)
    assert set(tiny_a.runs) == set(METHODS)


def test_broken_evaluation_accounting_raises(monkeypatch):
    def one_call_too_many(plan, image, **kwargs):
        image(complex(plan.p[0]))
        return evaluate_image(plan, image, **kwargs)

    monkeypatch.setattr(harness, "evaluate_image", one_call_too_many)
    config = harness.ExperimentConfig("B", methods=("talbot",), **TINY)
    with pytest.raises(RuntimeError, match="accounting broke for talbot: measured 6, planned 5"):
        harness.run_experiment(config)


def test_truncated_series_is_flagged_and_not_the_reference():
    # 1e-6 after the delay the series' truncation bound is 1.3e3: its flux
    # reads -3.22 where the march reads -1.8e-5
    config = harness.ExperimentConfig("D", methods=("dehoog",), n_times=3, t_min=0.080001,
                                      t_max=1.0, terms=15, n_per_unit=2)
    result = harness.run_experiment(config)
    assert result.series_truncated.tolist() == [True, False, False]
    series, fd = result.reference_series, result.reference_fd
    for got, s, f in zip(result.reference, series, fd):
        assert got[0] == f[0] and np.array_equal(got[1:], s[1:])
    assert result.summary[0]["max_err_flux"] < 0.05
    buf = io.StringIO()
    harness.write_experiment_csv(result, buf)
    flags = [line.split(",")[-1] for line in buf.getvalue().splitlines()
             if ",reference-series," in line]
    assert flags == [harness.FLAG_SERIES_TRUNCATED, "ok", "ok"]


def test_experiment_reference_columns(tiny_a):
    pot, flux = tiny_a.reference
    assert pot.shape == (5,)
    assert np.all(np.isfinite(flux))
    # reference follows the known steady value at late time
    assert pot[-1] == pytest.approx(-14.0 / 9.0, abs=5e-2)


def test_experiment_csv_deterministic(tiny_a):
    buf1, buf2 = io.StringIO(), io.StringIO()
    harness.write_experiment_csv(tiny_a, buf1)
    harness.write_experiment_csv(tiny_a, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    header = buf1.getvalue().splitlines()[1]
    assert header == "t,method,potential,flux,flag"
    # a second identical run produces byte-identical output
    again = harness.run_experiment(harness.ExperimentConfig(experiment="A", **TINY))
    buf3 = io.StringIO()
    harness.write_experiment_csv(again, buf3)
    assert buf3.getvalue() == buf1.getvalue()


def test_summary_csv_schema(tiny_a):
    buf = io.StringIO()
    harness.write_summary_csv(tiny_a.summary, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("experiment,method,terms,evaluations_raw")
    assert len(lines) == 1 + len(tiny_a.runs)


def test_delayed_experiment_weeks_flagged():
    cfg = harness.ExperimentConfig(experiment="D", methods=("weeks",),
                                   **TINY)
    res = harness.run_experiment(cfg)
    run = res.runs["weeks"]
    for i, t in enumerate(res.grid.times):
        if t < oracles.DELAY_TAU:
            assert "undefined-before-delay" in run.flags[i]
        else:
            assert "undefined-before-delay" not in run.flags[i]


def test_near_boundary_point_flags_every_time():
    # (0.1, 1.0) is inside the mesh but within half an element of its left side
    config = harness.ExperimentConfig("B", observation=(0.1, 1.0), n_times=3, terms=9,
                                      n_per_unit=2, t_max=1.0)
    harness.run_experiment(config)
    # the flags are kept with the cached transfers
    result = harness.run_experiment(config)
    for run in result.runs.values():
        assert run.model_solves == 0
        assert all(bem.FLAG_NEAR_BOUNDARY in f for f in run.flags)
    buf = io.StringIO()
    harness.write_experiment_csv(result, buf)
    method_rows = [line for line in buf.getvalue().splitlines()[2:]
                   if ",reference-" not in line]
    assert len(method_rows) == 3 * len(result.runs)
    assert all(line.endswith(bem.FLAG_NEAR_BOUNDARY) for line in method_rows)


def test_pairs_benchmark_rows():
    grid = make_time_grid(0.2, 2.0, 8)
    pairs = [p for p in oracles.pair_catalog() if p.name in ("1/p", "1/p^2")]
    rows = harness.run_pairs_benchmark(("dehoog",), pairs, 41, grid)
    rows += harness.run_pairs_benchmark(("stehfest",), pairs, 15, grid)
    assert len(rows) == 4
    by_key = {(r["method"], r["pair"]): r for r in rows}
    assert by_key[("dehoog", "1/p")]["max_rel_err"] < 1e-6
    assert by_key[("dehoog", "1/p")]["evaluations"] == 41
    assert by_key[("stehfest", "1/p")]["max_rel_err"] < 1e-6
    # stehfest plans per time: 8 times x 16 nodes (15 rounded up to even),
    # minus one dedup hit: k=1 at t=0.2 coincides with k=10 at t=2.0
    assert by_key[("stehfest", "1/p")]["evaluations"] == 8 * 16 - 1


def test_pair_suite_default_orders_keep_stehfest_accurate(tmp_path):
    # without --terms each method runs at its PAIR_TERMS order.  At the old
    # common order of 41, Stehfest ran at N = 42 and every row read
    # 1e9-1e11: float cancellation, not the method.  Its max on the cosine
    # and the delayed step (4.9e-2) is the method's own limit
    assert set(harness.PAIR_TERMS) == set(METHODS)
    rc = cli.main(["--pairs", "--methods", "stehfest", "--t-range", "0.1:1",
                   "--times", "15", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "pairs.csv").read_text().splitlines()[1:]
    assert len(rows) == len(oracles.pair_catalog())
    for row in rows:
        _, _, max_rel, mean_rel, _ = row.split(",")
        assert float(mean_rel) < 1e-2 and float(max_rel) < 1e-1, row


def test_pair_suite_delayed_step_error_is_absolute_before_the_delay():
    # the true inverse is 0 before the delay, where a relative error read
    # 1.8e299-9.7e299 on the CLI's default grid; there the error is absolute
    grid = make_time_grid(0.01, 10.0, 15, "logarithmic")
    pairs = [p for p in oracles.pair_catalog() if p.tau > 0]
    assert len(pairs) == 1 and grid.times[0] < pairs[0].tau
    rows = harness.run_pairs_benchmark(METHODS, pairs, None, grid)
    assert [r["method"] for r in rows] == list(METHODS)
    for row in rows:
        assert np.isfinite(row["max_rel_err"]) and row["max_rel_err"] < 2.0, row


def test_pairs_benchmark_plans_once_per_method(monkeypatch):
    calls = []

    def counting_plan(method, *args, **kwargs):
        calls.append(method)
        return plan_samples(method, *args, **kwargs)

    monkeypatch.setattr(harness, "plan_samples", counting_plan)
    grid = make_time_grid(0.2, 2.0, 4)
    pairs = oracles.pair_catalog()
    rows = harness.run_pairs_benchmark(("talbot", "stehfest"), pairs, 12, grid)
    assert len(rows) == 2 * len(pairs) > 2
    assert calls == ["talbot", "stehfest"]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_experiment_run(tmp_path):
    rc = cli.main(["--experiment", "A", "--times", "4", "--t-range", "0.1:10",
                   "--mesh-density", "2", "--terms", "5",
                   "--methods", "talbot,dehoog", "--out", str(tmp_path),
                   "--gnuplot"])
    assert rc == 0
    exp = tmp_path / "experiment_A.csv"
    assert exp.exists()
    lines = exp.read_text().splitlines()
    assert lines[1] == "t,method,potential,flux,flag"
    # 2 methods + 2 reference blocks, 4 times each
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 4 * 4
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "experiment_A_talbot.dat").exists()


def test_cli_pairs_run(tmp_path):
    rc = cli.main(["--pairs", "--methods", "dehoog", "--terms", "21",
                   "--times", "6", "--t-range", "0.2:2", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "pairs.csv").read_text()
    assert text.splitlines()[0] == "method,pair,max_rel_err,mean_rel_err,evaluations"
    assert len(text.splitlines()) == 1 + 6  # six catalog pairs


def test_cli_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# benchmark configuration\n"
        "experiment = A\n"
        "methods = talbot\n"
        "terms = 5\n"
        "times = 4\n"
        "t-range = 0.1:10\n"
        "mesh-density = 2\n"
        "pairs = false\n"
        "gnuplot = false\n")
    out = tmp_path / "out"
    rc = cli.main(["--config", str(cfg), "--out", str(out),
                   "--methods", "dehoog"])  # command line wins
    assert rc == 0
    text = (out / "experiment_A.csv").read_text()
    assert ",dehoog," in text
    assert ",talbot," not in text
    assert not list(out.glob("*.dat"))
    assert cli.main(["--config", str(cfg), "--out", str(out), "--gnuplot"]) == 0
    assert (out / "experiment_A_talbot.dat").exists()


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path)]) == 2  # no experiment selected
    assert cli.main(["--experiment", "B", "--methods", "stehfest",
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["--pairs", "--methods", "piessens", "--out", str(tmp_path)]) == 2
    for mode in (["--experiment", "B"], ["--pairs"]):
        capsys.readouterr()
        assert cli.main(mode + ["--methods", "talbot,talbot", "--out", str(tmp_path)]) == 2
        assert "'talbot' is named twice" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    assert cli.main(["--config", str(bad)]) == 2
    for line in ("pairs = no", "gnuplot = yes", "mesh_densty = 99", "times = abc",
                 "terms = 2.5", "mesh-density = "):
        bad.write_text(f"experiment = A\n{line}\n")
        capsys.readouterr()
        assert cli.main(["--config", str(bad), "--out", str(tmp_path)]) == 2, line
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: "), line
    assert not (tmp_path / "pairs.csv").exists()


def test_cli_rejects_non_finite_times(tmp_path, capsys):
    assert cli.main(["--pairs", "--methods", "dehoog", "--t-range", "0.01:inf",
                     "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert cli.main(["--experiment", "B", "--t-range", "0.01:inf",
                     "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", sorted(harness.EXPERIMENT_DEFAULTS))
def test_shipped_configs_restate_the_defaults(experiment):
    # a changed default cannot leave the shipped files behind
    path = Path(__file__).resolve().parents[1] / "configs" / f"experiment_{experiment.lower()}.cfg"
    config = cli._experiment_config(cli._parse_config_file(str(path)))
    assert config.resolved() == harness.ExperimentConfig(experiment).resolved()
