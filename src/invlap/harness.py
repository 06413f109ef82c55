"""Benchmark harness: the four BEM experiments and the analytic-pair suite.

Each experiment inverts the boundary element solution of the transformed
diffusion benchmark at one observation point, for every requested
inversion method, and accounts for exactly how many image-function
evaluations each method consumed and how many BEM solves they cost.  CSV
output is deterministic and byte-stable for a fixed configuration.

Flux sign convention: the reported flux is the x-component of -grad(phi)
at the observation point.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import bem, oracles
from .core import (FLAG_UNDEFINED_BEFORE_DELAY, METHODS, PER_TIME_METHODS,
                   CountingImage, SamplingStrategy, TimeGrid, evaluate_image,
                   invert_all, make_time_grid, plan_samples)

SHARED_METHODS = tuple(m for m in METHODS if m not in PER_TIME_METHODS)

#: experiment id -> (behavior, strategy, default methods, default terms)
EXPERIMENT_DEFAULTS = {
    "A": (oracles.HEAVISIDE, SamplingStrategy.PER_TIME_OPTIMAL, METHODS, 9),
    "B": (oracles.HEAVISIDE, SamplingStrategy.SHARED_GLOBAL, SHARED_METHODS, 51),
    "C": (oracles.COSINE4T, SamplingStrategy.SHARED_GLOBAL, SHARED_METHODS, 51),
    "D": (oracles.DELAYED_STEP, SamplingStrategy.SHARED_GLOBAL, SHARED_METHODS, 51),
}


#: Approximation order of each method in the analytic-pair suite when the
#: caller names none: the orders of acceptance criterion 2, which keep
#: Stehfest below the double-precision cap of 18 terms (at N = 42 its
#: rows report float cancellation, 1e9-1e11), and Schapery at 41
PAIR_TERMS = {"dehoog": 41, "talbot": 32, "weeks": 32, "stehfest": 16, "schapery": 41}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _check_methods(methods) -> None:
    """Raise unless every method is known and named once."""
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ConfigError(f"method {m!r} is named twice")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    methods: tuple = ()
    terms: int = 0
    n_times: int = 15
    t_min: float = 0.01
    t_max: float = 10.0
    observation: tuple = (1.0 / 3.0, 1.0)
    n_per_unit: int = 8
    #: threads that run the model solves of a plan ahead of its evaluation
    workers: int = 2

    def resolved(self) -> "ExperimentConfig":
        """Fill defaults from the experiment id and validate compatibility."""
        if self.experiment not in EXPERIMENT_DEFAULTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {sorted(EXPERIMENT_DEFAULTS)}")
        behavior, strategy, methods, terms = EXPERIMENT_DEFAULTS[self.experiment]
        if self.terms < 0:
            raise ConfigError(f"terms must be >= 0 (0 picks the default), got {self.terms}")
        out = self
        if not out.methods:
            out = replace(out, methods=methods)
        if out.terms == 0:
            out = replace(out, terms=terms)
        _check_methods(out.methods)
        per_time = [m for m in out.methods if m in PER_TIME_METHODS]
        if strategy is not SamplingStrategy.PER_TIME_OPTIMAL and per_time:
            raise ConfigError(f"{per_time[0]} cannot join shared-sample experiments: "
                              "its sample points depend explicitly on t")
        if not (0 < self.t_min < self.t_max):
            raise ConfigError("need 0 < t_min < t_max")
        if self.t_min < oracles.CN_DT:
            raise ConfigError(f"t_min {self.t_min:g} is below the Crank-Nicolson "
                              f"reference step {oracles.CN_DT:g}")
        return out

    @property
    def behavior(self) -> oracles.TimeBehavior:
        return EXPERIMENT_DEFAULTS[self.experiment][0]

    @property
    def strategy(self) -> SamplingStrategy:
        return EXPERIMENT_DEFAULTS[self.experiment][1]


#: Benchmark meshes kept by density, so that every experiment at one
#: density shares the transfer memo below.
_MESH_MEMO_SIZE = 4
#: (mesh, observation) keys whose transfers are kept, and the most
#: transfers kept per key; past that, solves still run but are not stored.
_TRANSFER_MEMO_SIZE = 4
_TRANSFERS_PER_KEY = 4096
#: Most kernel arguments (p times solve distances) that one chunk of
#: BemImage.solve_ahead evaluates at once; a chunk holds at least one p.
_KERNEL_BLOCK_POINTS = 2 ** 13


@functools.lru_cache(maxsize=_MESH_MEMO_SIZE)
def _benchmark_mesh(n_per_unit: int) -> bem.BoundaryMesh:
    return bem.benchmark_rectangle_mesh(n_per_unit)


@functools.lru_cache(maxsize=_TRANSFER_MEMO_SIZE)
def _transfers(mesh: bem.BoundaryMesh, observation: tuple) -> dict:
    """Bit pattern of p -> (transfer, eval_interior flags) for one key."""
    return {}


class BemImage(CountingImage):
    """Image function of the benchmark: observation potential and flux.

    The spatial transfer, potential and x-flux at the observation point
    for the mesh's boundary values, depends on (mesh, observation, p)
    only.  One boundary element solve per distinct p yields it (in
    float64 when p is real, see :func:`bem.assemble`), and a
    process-wide memo keeps it by the exact bits of p for every image on
    the same key, whatever its time behavior.  Each call multiplies the
    transfer by the behavior's image fbar_t(p).  ``calls``, inherited from
    :class:`CountingImage`, counts image calls, which the planner's
    deduplicated total must match; ``solves`` counts the solves this image
    actually ran, and ``flags`` holds the flags of
    :func:`bem.eval_interior` at the observation point once the image has
    been called.  Every solve goes through :meth:`solve_ahead`: a plan's
    missing p ahead of its evaluation, or the one p of an image call that
    misses the memo.  The image, its counters and the memo are used from
    the calling thread only.
    """

    def __init__(self, mesh: bem.BoundaryMesh, observation, behavior):
        super().__init__(self._image)
        self.mesh = mesh
        self.observation = tuple(observation)
        self.behavior = behavior
        self._transfers = _transfers(mesh, self.observation)
        self.solves = 0
        self.flags = ()

    def _solve_chunk(self, p_values) -> list:
        """(transfer, flags) of each p, or the exception its solve raised.

        The p share one call of each BEM stage, on the stack of their
        wavenumbers.  If the stack raises, each p is solved alone, so the
        error stays with its own p and the other p still get their values.
        """
        try:
            system = bem.assemble(self.mesh, [np.sqrt(p) for p in p_values])
            solution = bem.solve_boundary(system, self.mesh)
            phi, grad, flags = bem.eval_interior(solution, self.mesh, self.observation)
        except Exception as exc:  # noqa: BLE001 - raised again at its p
            if len(p_values) == 1:
                return [exc]
            return [entry for p in p_values for entry in self._solve_chunk([p])]
        transfers = np.stack([phi, -grad[:, 0]], axis=1)
        transfers.flags.writeable = False
        return [(transfer, flags) for transfer in transfers]

    def solve_ahead(self, p_values, workers: int) -> dict:
        """Solve the p in `p_values` that the memo lacks, on up to
        `workers` threads, and memoise them, so that calling the image on
        them only reads the memo.  Returns the bits of each p solved ->
        its (transfer, flags), or the exception its solve raised.

        Only as many p are solved as the memo has room for, and at least
        one, so that an image call that misses a full memo still gets its
        value.  The p are split into chunks of at most
        _KERNEL_BLOCK_POINTS kernel arguments (one p where one p has
        more), as many as a multiple of `workers`, so that the threads get
        even shares.  Real and complex p go to different chunks, since a
        real q in a complex stack would be solved in complex arithmetic.
        A chunk makes one call of each BEM stage on the stack of its
        wavenumbers, so its K0/K1 take two calls, which numpy runs without
        the GIL when they have more than 500 arguments (one p's 385 at the
        point at density 8 do not).  Fewer and longer calls, most likely,
        leave the threads less time waiting for the GIL: on a 20-element
        mesh, where a chunk holds six p, the 166 p of the ``bem-per-time``
        benchmark took 89 ms on two threads against 113 ms one p at a time
        (132 ms on one thread, 2 vCPUs).  With one worker, or one chunk,
        the chunks run inline and no thread starts.  Every row of a stack
        has the bits of its p's own solve, so values, flags and ``solves``
        do not depend on the chunks or the workers; a solve that raises is
        not memoised, and the image call raises it with its p.  The mesh
        geometry is built here, before any thread starts.
        """
        transfers = self._transfers
        missing = {np.complex128(p).tobytes(): p for p in p_values}
        missing = [(key, p) for key, p in missing.items() if key not in transfers]
        missing = missing[:max(1, _TRANSFERS_PER_KEY - len(transfers))]
        if not missing:
            return {}
        rows = max(1, _KERNEL_BLOCK_POINTS // bem.kernel_arguments(self.mesh, self.observation))
        n_chunks = min(len(missing), workers * -(-len(missing) // (rows * workers)))
        missing.sort(key=lambda item: np.complex128(item[1]).imag != 0)
        n_real = sum(np.complex128(p).imag == 0 for _, p in missing)
        bounds = sorted({len(missing) * i // n_chunks for i in range(n_chunks + 1)} | {n_real})
        chunks = [[p for _, p in missing[a:b]] for a, b in zip(bounds, bounds[1:])]
        if workers < 2 or len(chunks) < 2:
            entries = [entry for chunk in chunks for entry in self._solve_chunk(chunk)]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(self._solve_chunk, chunk) for chunk in chunks]
            entries = [entry for future in futures for entry in future.result()]
        solved = {}
        for (key, _), entry in zip(missing, entries):
            solved[key] = entry
            if not isinstance(entry, Exception):
                self.solves += 1
                if len(transfers) < _TRANSFERS_PER_KEY:
                    transfers[key] = entry
        return solved

    def _image(self, p: complex):
        # bits, not value: -0.0 == 0.0, but sqrt takes its branch from the sign
        key = np.complex128(p).tobytes()
        entry = self._transfers.get(key)
        if entry is None:
            entry = self.solve_ahead([p], 1)[key]
            if isinstance(entry, Exception):
                raise entry
        # the flags depend on the point only, so every p gives the same
        transfer, self.flags = entry
        return transfer * self.behavior.image(p)


@dataclass
class MethodRun:
    method: str
    potential: np.ndarray
    flux: np.ndarray
    flags: tuple
    evaluations_raw: int
    evaluations_planned: int
    evaluations_measured: int
    model_solves: int


#: Flag of a reference-series row whose truncation bound exceeds
#: oracles.SERIES_BOUND_TOL.
FLAG_SERIES_TRUNCATED = "series-truncated"


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    grid: TimeGrid
    runs: dict
    reference_series: tuple | None
    reference_fd: tuple
    #: per time, whether the series value is truncated (None without a series)
    series_truncated: np.ndarray | None
    summary: list = field(default_factory=list)

    @property
    def reference(self) -> tuple:
        """Preferred reference columns: the series where it exists and is
        not truncated, the FD march elsewhere."""
        if self.reference_series is None:
            return self.reference_fd
        return tuple(np.where(self.series_truncated, fd, series)
                     for series, fd in zip(self.reference_series, self.reference_fd))


def _normalized_max_error(values: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.max(np.abs(reference)))
    if scale == 0:
        scale = 1.0
    finite = np.isfinite(values)
    if not finite.any():
        return math.inf
    return float(np.max(np.abs(values[finite] - reference[finite])) / scale)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one benchmark experiment for every requested method.

    Per method: plan the Laplace samples, evaluate the BEM image once per
    distinct p, invert every grid time, and record per-time flags plus the
    evaluation accounting.  The mesh is shared per density within the
    process, so a p already solved at this point, by any method or
    experiment, costs no new model solve.  Reference columns come from the
    eigenfunction series (the behaviors of oracles.SERIES_BEHAVIORS) and
    the Crank-Nicolson march; the summary measures errors against the
    series, and against the march at times where the series is truncated.
    An observation point not strictly inside the mesh is a ConfigError.
    """
    config = config.resolved()
    behavior = config.behavior
    grid = make_time_grid(config.t_min, config.t_max, config.n_times, "logarithmic")
    mesh = _benchmark_mesh(config.n_per_unit)
    if not mesh.contains(config.observation):
        raise ConfigError(f"observation point {config.observation} is not "
                          "strictly inside the mesh")
    x_obs = config.observation[0]

    runs = {}
    for method in config.methods:
        image = BemImage(mesh, config.observation, behavior)
        plan = plan_samples(method, grid, config.terms, config.strategy)
        image.solve_ahead(plan.p.tolist(), config.workers)
        samples = evaluate_image(plan, image)
        result = invert_all(method, samples, grid)
        if image.calls != plan.total_evaluations:
            raise RuntimeError(
                f"evaluation accounting broke for {method}: measured "
                f"{image.calls}, planned {plan.total_evaluations}")
        flags = list(result.flags)
        if behavior.tau > 0 and method == "weeks":
            # continuous basis functions cannot represent the dead time
            for i, t in enumerate(grid.times):
                if t < behavior.tau:
                    flags[i] = flags[i] + (FLAG_UNDEFINED_BEFORE_DELAY,)
        if image.flags:
            # a point near the boundary degrades every value at it
            flags = [f + image.flags for f in flags]
        runs[method] = MethodRun(
            method=method,
            potential=result.values[:, 0],
            flux=result.values[:, 1],
            flags=tuple(flags),
            evaluations_raw=plan.raw_evaluations,
            evaluations_planned=plan.total_evaluations,
            evaluations_measured=image.calls,
            model_solves=image.solves,
        )

    series = truncated = None
    if behavior in oracles.SERIES_BEHAVIORS:
        sv = [oracles.benchmark_time_series_1d(x_obs, t, behavior) for t in grid.times]
        series = (np.array([s.potential for s in sv]),
                  np.array([s.flux for s in sv]))
        truncated = np.array([s.truncated for s in sv])
    fd = oracles.crank_nicolson_1d(x_obs, grid, behavior)
    result = ExperimentResult(config=config, grid=grid, runs=runs,
                              reference_series=series,
                              reference_fd=(fd.potential, fd.flux),
                              series_truncated=truncated)
    ref_pot, ref_flux = result.reference
    for method in config.methods:
        run = runs[method]
        result.summary.append({
            "experiment": config.experiment,
            "method": method,
            "terms": config.terms,
            "evaluations_raw": run.evaluations_raw,
            "evaluations_planned": run.evaluations_planned,
            "evaluations_measured": run.evaluations_measured,
            "max_err_potential": _normalized_max_error(run.potential, ref_pot),
            "max_err_flux": _normalized_max_error(run.flux, ref_flux),
            "flagged_times": sum(1 for f in run.flags if f),
        })
    return result


def write_experiment_csv(result: ExperimentResult, stream) -> None:
    """Rows: t,method,potential,flux,flag (methods first, then references)."""
    stream.write("# invlap experiment %s; flux is the x-component of "
                 "-grad(phi) at the observation point\n" % result.config.experiment)
    stream.write("t,method,potential,flux,flag\n")

    def fmt(v: float) -> str:
        return f"{v:.12e}"

    for method in result.config.methods:
        run = result.runs[method]
        for i, t in enumerate(result.grid.times):
            flag = "+".join(run.flags[i]) if run.flags[i] else "ok"
            stream.write(f"{fmt(t)},{method},{fmt(run.potential[i])},"
                         f"{fmt(run.flux[i])},{flag}\n")
    no_flags = ("ok",) * len(result.grid)
    refs = [("reference-fd", result.reference_fd, no_flags)]
    if result.reference_series is not None:
        flags = [FLAG_SERIES_TRUNCATED if cut else "ok" for cut in result.series_truncated]
        refs.insert(0, ("reference-series", result.reference_series, flags))
    for name, (pot, flux), flags in refs:
        for i, t in enumerate(result.grid.times):
            stream.write(f"{fmt(t)},{name},{fmt(pot[i])},{fmt(flux[i])},{flags[i]}\n")


def write_summary_csv(summaries: list, stream) -> None:
    stream.write("experiment,method,terms,evaluations_raw,evaluations_planned,"
                 "evaluations_measured,max_err_potential,max_err_flux,flagged_times\n")
    for row in summaries:
        stream.write(
            f"{row['experiment']},{row['method']},{row['terms']},"
            f"{row['evaluations_raw']},{row['evaluations_planned']},"
            f"{row['evaluations_measured']},{row['max_err_potential']:.6e},"
            f"{row['max_err_flux']:.6e},{row['flagged_times']}\n")


def write_gnuplot(result: ExperimentResult, directory) -> list:
    """Optional whitespace-separated files, one per method plus references."""
    import pathlib

    directory = pathlib.Path(directory)
    written = []
    columns = {m: (result.runs[m].potential, result.runs[m].flux)
               for m in result.config.methods}
    columns["reference-fd"] = result.reference_fd
    if result.reference_series is not None:
        columns["reference-series"] = result.reference_series
    for name, (pot, flux) in columns.items():
        path = directory / f"experiment_{result.config.experiment}_{name}.dat"
        with open(path, "w") as fh:
            fh.write("# t potential flux\n")
            for i, t in enumerate(result.grid.times):
                fh.write(f"{t:.12e} {pot[i]:.12e} {flux[i]:.12e}\n")
        written.append(path)
    return written


def run_pairs_benchmark(methods, pairs, terms: int | None, grid: TimeGrid) -> list:
    """Per (method, pair) accuracy on closed-form transforms.

    Isolates algorithm error from PDE discretization error.  Methods whose
    nodes depend on t plan per time; the others share one sample vector
    across the grid.  Errors are pointwise relative to the true inverse,
    and absolute at times where the true inverse is 0 (the delayed step
    before its delay), where a relative error has no meaning.
    ``terms=None`` plans each method at its :data:`PAIR_TERMS` order.  A
    method that is unknown or named twice is a ConfigError.
    """
    _check_methods(methods)
    rows = []
    for method in methods:
        strategy = (SamplingStrategy.PER_TIME_OPTIMAL if method in PER_TIME_METHODS
                    else SamplingStrategy.SHARED_GLOBAL)
        plan = plan_samples(method, grid, PAIR_TERMS[method] if terms is None else terms,
                            strategy)
        for pair in pairs:
            image = CountingImage(pair.image)
            samples = evaluate_image(plan, image)
            result = invert_all(method, samples, grid)
            ref = np.array([float(pair.time_function(t)) for t in grid.times])
            err = np.abs(result.values - ref) / np.where(ref == 0, 1.0, np.abs(ref))
            rows.append({
                "method": method,
                "pair": pair.name,
                "max_rel_err": float(np.max(err)),
                "mean_rel_err": float(np.mean(err)),
                "evaluations": image.calls,
            })
    return rows


def write_pairs_csv(rows: list, stream) -> None:
    stream.write("method,pair,max_rel_err,mean_rel_err,evaluations\n")
    for row in rows:
        stream.write(f"{row['method']},{row['pair']},{row['max_rel_err']:.6e},"
                     f"{row['mean_rel_err']:.6e},{row['evaluations']}\n")
