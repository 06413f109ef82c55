"""Workload definitions, seeded inputs and the sweeps the benchmark times.

Every workload is a closed loop: each sweep starts after the previous one
ends, and inside a sweep each (method, sweep) inversion starts after the
previous one ends.  BEM image functions are evaluated by
``ExperimentConfig.workers`` = 2 threads; the analytic pairs serially.

The seed picks one of a fixed set of input variants, so that the outputs
of the code the benchmark was defined on can be stored per variant
(``expected.json``), and so that every variant does the same work.  Sweep
times below are medians measured at the seed commit on a 2-vCPU x86-64
VM (Python 3.11, numpy 2.4, scipy 1.17, OpenBLAS 0.3.31), whose own speed
drifts by about 10% from minute to minute.

``bem-shared``
    Experiments B, C and D of ``invlap.harness`` back to back on
    t in [0.01, 1]: one shared-global vector of 15 terms, four methods,
    three boundary time behaviours.  The model solve dominates.  All
    three behaviours plan the same p vectors (sigma = 0, same t_max and
    terms), so 180 image calls cover 60 distinct p: a transfer cache keyed
    by p could skip 2/3 of the solves.  6% of the Bessel arguments have
    |qr| >= 16.  About 5.5 s per sweep.
``bem-per-time``
    Experiment A on its default t in [0.01, 10] with 4 times, one per
    decade: per-time-optimal planning, five methods including Stehfest, 9
    terms, 4 plan groups per method.  No p repeats (166 image calls), so a
    transfer cache has nothing to reuse here: the prediction is no change.
    Its per-time nodes reach |p| ~ 700, so 23% of the Bessel arguments
    take the asymptotic branch (|qr| >= 16), against 6% in ``bem-shared``;
    a kernel change that trades one argument range for another shows up as
    a difference between the two.  Stehfest nodes of times a decade apart
    coincide, so 184 raw nodes plan 166 image calls.  About 6 s per sweep.
``pairs-dense``
    The closed-form ``oracles.pair_catalog()`` images, wrapped in
    ``core.CountingImage``, through ``plan_samples``, ``evaluate_image``
    and ``invert_all`` on a dense logarithmic and a dense linear grid of 16
    times each.  All five methods run under PER_TIME_OPTIMAL and the four
    shared-sample methods under SHARED_PER_LOG_CYCLE.  On the linear grid
    t_i = (i + 1) h, so Stehfest nodes k ln2 / t_i coincide and dedup
    merges them (256 raw nodes, 159 distinct); on the log grid nothing
    merges.  29,352 image calls per sweep.  An image call costs
    microseconds, so the run measures planning and its O(n^2) dedup (about
    half the sweep), per-call evaluation overhead and the inverters.  The
    only workload with SHARED_PER_LOG_CYCLE.  About 1 s per sweep, so that
    a run holds some 25 sweeps.

The BEM workloads use mesh density 2 (20 elements) instead of the harness
default of 8, and fewer terms or times than the default experiments, so
that several sweeps fit one run of the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from invlap import bem, core, harness, oracles

#: Elements per unit length of the benchmark rectangle (20 elements).
MESH_DENSITY = 2
#: Evaluation threads; the harness default, equal to nproc on 2 cores.
WORKERS = 2

#: Observation point of the BEM workloads, one element (0.5) or more from
#: the boundary.  The seed picks one of its mirror images in x = 1.5 and
#: y = 1; the mesh is symmetric under both, so every variant has the same
#: discretisation error.
OBSERVATION_BASE = (0.6, 0.9)
#: Common scale factors of the pair grids.  Scaling every time by one
#: factor keeps the coincident-node structure, hence the image-call count.
#: Over this range no grid time comes within 10% of the 0.08 delay of the
#: delayed step, and the number of log cycles stays fixed (three on the
#: log grid, two on the linear one).
PAIR_SCALES = tuple(0.965 + 0.01 * k for k in range(8))

PAIR_TERMS = {"stehfest": 16, "schapery": 16, "weeks": 32, "talbot": 32, "dehoog": 41}
PAIR_STRATEGIES = (core.SamplingStrategy.PER_TIME_OPTIMAL,
                   core.SamplingStrategy.SHARED_PER_LOG_CYCLE)


@dataclass(frozen=True)
class Workload:
    kind: str                  # "bem" or "pairs"
    experiments: tuple = ()


WORKLOADS = {
    "bem-shared": Workload("bem", ("B", "C", "D")),
    "bem-per-time": Workload("bem", ("A",)),
    "pairs-dense": Workload("pairs"),
}

#: ExperimentConfig overrides per experiment, and the pair grids.
FULL = {"bem": {"A": {"n_times": 4},
                **{e: {"t_min": 0.01, "t_max": 1.0, "terms": 15} for e in "BCD"}},
        "pairs_times": 16, "log_range": (0.0125, 9.0), "linear_step": 0.11}
#: The miniature runs the same code paths in seconds (``selftest.py``).
MINI = {"bem": {e: {"n_times": 3, "t_min": 0.1, "t_max": 1.0,
                    "terms": 4 if e == "A" else 9} for e in "ABCD"},
        "pairs_times": 6, "log_range": (0.0125, 9.0), "linear_step": 0.11}


def n_variants(workload: str) -> int:
    return 4 if WORKLOADS[workload].kind == "bem" else len(PAIR_SCALES)


def variant_for_seed(workload: str, seed: int) -> int:
    return int(np.random.default_rng(seed).integers(n_variants(workload)))


def observation_point(variant: int) -> tuple:
    x, y = OBSERVATION_BASE
    if variant & 1:
        x = 3.0 - x
    if variant & 2:
        y = 2.0 - y
    return (x, y)


@dataclass
class Inputs:
    """Everything a sweep needs, generated before the first timed call."""

    workload: str
    variant: int
    mini: bool
    configs: tuple = ()            # bem: one ExperimentConfig per experiment
    grids: tuple = ()              # pairs: (name, TimeGrid)
    pairs: tuple = ()


def make_inputs(workload: str, seed: int, mini: bool = False) -> Inputs:
    spec = WORKLOADS[workload]
    variant = variant_for_seed(workload, seed)
    size = MINI if mini else FULL
    if spec.kind == "bem":
        point = observation_point(variant)
        mesh = bem.benchmark_rectangle_mesh(MESH_DENSITY)
        gap = min(point[0], 3.0 - point[0], point[1], 2.0 - point[1])
        if gap < float(np.max(mesh.lengths)):
            raise ValueError(f"observation point {point} is within one element "
                             "of the boundary")
        configs = tuple(
            harness.ExperimentConfig(e, observation=point, n_per_unit=MESH_DENSITY,
                                     workers=WORKERS, **size["bem"][e])
            for e in spec.experiments)
        return Inputs(workload, variant, mini, configs=configs)
    scale = PAIR_SCALES[variant]
    n = size["pairs_times"]
    lo, hi = size["log_range"]
    h = size["linear_step"] * scale
    grids = (("log", core.make_time_grid(lo * scale, hi * scale, n, "logarithmic")),
             ("linear", core.TimeGrid(h * np.arange(1, n + 1), "linear")))
    return Inputs(workload, variant, mini, grids=grids, pairs=oracles.pair_catalog())


@dataclass
class Row:
    """One operation: a (method, sweep) inversion and what it produced."""

    key: str
    times: np.ndarray = None
    columns: dict = field(default_factory=dict)
    reference: object = None      # dict of arrays, or a callable t -> values
    flags: tuple = ()
    planned: int = 0
    measured: int = 0
    error: str = ""


def run_sweep(inputs: Inputs) -> list:
    """Run one sweep of the workload; returns one Row per operation."""
    if WORKLOADS[inputs.workload].kind == "bem":
        return _bem_sweep(inputs)
    return _pairs_sweep(inputs)


def _bem_sweep(inputs: Inputs) -> list:
    rows = []
    for config in inputs.configs:
        try:
            result = harness.run_experiment(config)
        except Exception as exc:  # noqa: BLE001 - every method of it fails
            rows.append(Row(key=f"{config.experiment}/*", error=repr(exc)))
            continue
        ref_pot, ref_flux = result.reference
        for method, run in result.runs.items():
            rows.append(Row(
                key=f"{config.experiment}/{method}", times=result.grid.times,
                columns={"potential": run.potential, "flux": run.flux},
                reference={"potential": ref_pot, "flux": ref_flux},
                flags=run.flags, planned=run.evaluations_planned,
                measured=run.evaluations_measured))
    return rows


def _pairs_sweep(inputs: Inputs) -> list:
    rows = []
    for grid_name, grid in inputs.grids:
        for strategy in PAIR_STRATEGIES:
            for method, terms in PAIR_TERMS.items():
                if method == "stehfest" and strategy is not core.SamplingStrategy.PER_TIME_OPTIMAL:
                    continue
                prefix = f"{grid_name}/{strategy.value}/{method}"
                try:
                    plan = core.plan_samples(method, grid, terms, strategy)
                except Exception as exc:  # noqa: BLE001 - every pair of it fails
                    rows.append(Row(key=f"{prefix}/*", error=repr(exc)))
                    continue
                for pair in inputs.pairs:
                    row = Row(key=f"{prefix}/{pair.name}", times=grid.times,
                              reference=pair.time_function,
                              planned=plan.total_evaluations)
                    try:
                        image = core.CountingImage(pair.image)
                        samples = core.evaluate_image(plan, image)
                        result = core.invert_all(method, samples, grid)
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        row.error = repr(exc)
                    else:
                        row.columns = {"value": result.values}
                        row.flags = result.flags
                        row.measured = image.calls
                    rows.append(row)
    return rows
