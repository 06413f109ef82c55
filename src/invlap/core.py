"""Sample planning, evaluation caching, and inverter dispatch.

The central idea is to separate *where* the Laplace parameter is sampled
from *evaluating* the image function there and from *inverting* those
samples back to the time domain.  A :class:`SamplePlan` lists every
distinct p an algorithm needs for a whole time grid, so that expensive
image functions (a PDE solve per p) are evaluated exactly once per
distinct parameter, and so the same evaluations can be reused across many
output times.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algorithms as alg

METHODS = ("stehfest", "schapery", "weeks", "talbot", "dehoog")

#: Relative tolerance below which two planned p values are considered the
#: same evaluation.  Chosen below quadrature sensitivity, above rounding.
DEDUP_RTOL = 1e-12

#: Sample magnitudes beyond these are flagged; 'large' warns that the
#: downstream quadrature must cancel many digits, 'overflow' marks values
#: a double-precision sum can no longer use meaningfully.
SAMPLE_LARGE_MAGNITUDE = 1e4
SAMPLE_OVERFLOW_MAGNITUDE = 1e20

FLAG_SAMPLE_LARGE = "large"
FLAG_SAMPLE_OVERFLOW = "overflow"
FLAG_UNDEFINED_BEFORE_DELAY = "undefined-before-delay"


class InvalidStrategyError(ValueError):
    """Strategy is incompatible with the requested method."""


class PlanMismatchError(ValueError):
    """Samples were produced by a plan for a different method or grid."""


class ImageEvaluationError(RuntimeError):
    """Image function raised; carries the offending Laplace parameter."""

    def __init__(self, p: complex, cause: BaseException):
        super().__init__(f"image evaluation failed at p = {p!r}: {cause}")
        self.p = p


class SamplingStrategy(Enum):
    PER_TIME_OPTIMAL = "per-time-optimal"
    SHARED_PER_LOG_CYCLE = "shared-per-log-cycle"
    SHARED_GLOBAL = "shared-global"


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing positive output times with a spacing tag."""

    times: np.ndarray
    spacing: str = "explicit"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("time grid must be a nonempty 1-D sequence")
        if np.any(t <= 0):
            raise ValueError("all times must be positive")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return self.times.size


def make_time_grid(t_min: float, t_max: float, n: int, spacing: str = "logarithmic") -> TimeGrid:
    """Build an n-point grid spanning [t_min, t_max].

    Logarithmic spacing uses equal ratios, linear uses equal steps.  A
    single-point grid (n = 1) returns [t_min] and requires t_min == t_max
    for the 'explicit' tag.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if t_min <= 0:
        raise ValueError("t_min must resolve to a positive time")
    if t_max < t_min:
        raise ValueError("t_max must be >= t_min")
    if n == 1:
        return TimeGrid(np.array([t_min]), spacing)
    if t_max == t_min:
        raise ValueError("t_max must exceed t_min for n > 1")
    if spacing == "logarithmic":
        times = np.geomspace(t_min, t_max, n)
    elif spacing == "linear":
        times = np.linspace(t_min, t_max, n)
    else:
        raise ValueError(f"unknown spacing {spacing!r} (use 'logarithmic' or 'linear')")
    return TimeGrid(times, spacing)


@dataclass(frozen=True)
class PlanGroup:
    """One parameter set and its node subset, inverting one or more times."""

    params: object
    node_indices: np.ndarray
    time_indices: np.ndarray
    t_max: float


@dataclass(frozen=True)
class SamplePlan:
    """All distinct Laplace parameters a (method, grid, strategy) run needs."""

    method: str
    strategy: SamplingStrategy
    grid: TimeGrid
    p: np.ndarray
    groups: tuple
    time_group: tuple
    raw_evaluations: int

    @property
    def total_evaluations(self) -> int:
        """Number of distinct p entries after deduplication."""
        return int(self.p.size)


@dataclass
class SampleSet:
    """Evaluated image values aligned with a plan's p vector."""

    plan: SamplePlan
    values: np.ndarray
    sample_flags: tuple
    evaluations_measured: int


@dataclass
class TimeSeriesResult:
    """Inverted values plus per-time diagnostics and evaluation accounting."""

    method: str
    times: np.ndarray
    values: np.ndarray
    flags: tuple
    per_time_evaluations: tuple
    evaluations_measured: int
    plan: SamplePlan


def _method_nodes(method: str, params) -> np.ndarray:
    if method == "stehfest":
        raise AssertionError("stehfest nodes are generated per time")
    if method == "schapery":
        return np.asarray(params.nodes, dtype=complex)
    if method == "weeks":
        return alg.weeks_nodes(params)
    if method == "talbot":
        return alg.talbot_contour(params.r, params.n_nodes)
    if method == "dehoog":
        return alg.dehoog_nodes(params)
    raise ValueError(f"unknown method {method!r}")


def _rule_of_thumb(method: str, terms: int, t_min: float, t_max: float, sigma: float):
    if method == "stehfest":
        return alg.StehfestParams.rule_of_thumb(terms)
    if method == "schapery":
        return alg.SchaperyParams.geometric(terms, t_min, t_max)
    if method == "weeks":
        return alg.WeeksParams.rule_of_thumb(terms, t_max, sigma)
    if method == "talbot":
        return alg.TalbotParams.rule_of_thumb(terms, t_max)
    if method == "dehoog":
        return alg.DeHoogParams.rule_of_thumb(terms, t_max, sigma)
    raise ValueError(f"unknown method {method!r}")


def _dedup(nodes: list) -> tuple:
    """Merge near-identical p values; returns (distinct array, index arrays).

    Quadratic scan with a full relative comparison; plans are small enough
    that robustness beats cleverness here.
    """
    reps: list = []
    index_arrays = []
    for arr in nodes:
        idx = np.empty(arr.size, dtype=int)
        for j, v in enumerate(arr):
            hit = -1
            for k, r in enumerate(reps):
                if abs(v - r) <= DEDUP_RTOL * max(abs(v), abs(r)):
                    hit = k
                    break
            if hit < 0:
                reps.append(v)
                hit = len(reps) - 1
            idx[j] = hit
        index_arrays.append(idx)
    return np.array(reps, dtype=complex), index_arrays


def plan_samples(method: str, grid: TimeGrid, terms: int,
                 strategy: SamplingStrategy, params=None, *,
                 sigma: float = 0.0) -> SamplePlan:
    """Plan every distinct Laplace parameter needed to invert a time grid.

    PER_TIME_OPTIMAL emits each method's rule-of-thumb nodes per time;
    SHARED_GLOBAL emits one vector sized to the grid's largest time;
    SHARED_PER_LOG_CYCLE groups times by floor(log10 t) and emits one
    vector per cycle.  Identical p values (relative tolerance 1e-12) are
    deduplicated across the whole plan.

    Stehfest's parameters depend explicitly on t, so only
    PER_TIME_OPTIMAL is valid for it.  Odd Stehfest term requests are
    rounded up to the next even order and the effective order is recorded
    in the group parameters.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if method == "stehfest" and strategy is not SamplingStrategy.PER_TIME_OPTIMAL:
        raise InvalidStrategyError(
            "Stehfest requires the per-time strategy: its sample points "
            "k ln2 / t depend explicitly on t")

    times = grid.times
    if strategy is SamplingStrategy.PER_TIME_OPTIMAL:
        partitions = [np.array([i]) for i in range(times.size)]
    elif strategy is SamplingStrategy.SHARED_GLOBAL:
        partitions = [np.arange(times.size)]
    elif strategy is SamplingStrategy.SHARED_PER_LOG_CYCLE:
        cycles = np.floor(np.log10(times)).astype(int)
        partitions = [np.nonzero(cycles == c)[0] for c in np.unique(cycles)]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    groups = []
    node_lists = []
    raw = 0
    for part in partitions:
        t_lo = float(times[part[0]])
        t_hi = float(times[part[-1]])
        if method == "stehfest":
            g_params = params if params is not None else alg.StehfestParams.rule_of_thumb(terms)
            g_nodes = alg.stehfest_nodes(t_hi, g_params).astype(complex)
        else:
            g_params = params if params is not None else _rule_of_thumb(
                method, terms, t_lo, t_hi, sigma)
            g_nodes = _method_nodes(method, g_params)
        node_lists.append(g_nodes)
        raw += g_nodes.size
        groups.append((g_params, part, t_hi))

    distinct, index_arrays = _dedup(node_lists)
    plan_groups = tuple(
        PlanGroup(params=g[0], node_indices=idx, time_indices=g[1], t_max=g[2])
        for g, idx in zip(groups, index_arrays)
    )
    time_group = [0] * times.size
    for gi, grp in enumerate(plan_groups):
        for ti in grp.time_indices:
            time_group[ti] = gi
    return SamplePlan(method=method, strategy=strategy, grid=grid, p=distinct,
                      groups=plan_groups, time_group=tuple(time_group),
                      raw_evaluations=raw)


def _flag_sample(v) -> str:
    mag = np.max(np.abs(np.atleast_1d(v)))
    if not np.all(np.isfinite(np.atleast_1d(v))) or mag >= SAMPLE_OVERFLOW_MAGNITUDE:
        return FLAG_SAMPLE_OVERFLOW
    if mag >= SAMPLE_LARGE_MAGNITUDE:
        return FLAG_SAMPLE_LARGE
    return ""


def evaluate_image(plan: SamplePlan, image, *, workers: int | None = None) -> SampleSet:
    """Evaluate the image function once per distinct planned p.

    The image is a callable p -> complex (or a fixed-length complex
    vector, for several observables sharing one model solve).  Results
    are assembled in plan order no matter the evaluation order, so a
    thread pool over `workers` gives bit-identical output to the serial
    path.  Non-finite or extreme values are flagged, not dropped.
    """
    if plan.p.size == 0:
        raise ValueError("plan is empty")

    def call(p):
        try:
            return image(complex(p))
        except Exception as exc:  # noqa: BLE001 - re-raised with context
            raise ImageEvaluationError(complex(p), exc) from exc

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(call, plan.p))
    else:
        raw = [call(p) for p in plan.p]

    first = np.asarray(raw[0], dtype=complex)
    values = np.empty((plan.p.size,) + first.shape, dtype=complex)
    for i, v in enumerate(raw):
        values[i] = v
    flags = tuple(_flag_sample(v) for v in values)
    return SampleSet(plan=plan, values=values, sample_flags=flags,
                     evaluations_measured=len(raw))


def _nan_like(values: np.ndarray):
    shape = values.shape[1:]
    return np.full(shape, np.nan) if shape else math.nan


def invert_all(method: str, samples: SampleSet, grid: TimeGrid, params=None) -> TimeSeriesResult:
    """Invert every grid time from a sample set produced for that method.

    Values are pure functions of (samples, parameters, t).  Numerically
    degenerate times carry diagnostic flags and NaN values instead of
    raising, so one bad time does not abort a sweep.
    """
    plan = samples.plan
    if plan.method != method:
        raise PlanMismatchError(f"samples were planned for {plan.method!r}, not {method!r}")
    if not np.array_equal(plan.grid.times, grid.times):
        raise PlanMismatchError("samples were planned for a different time grid")
    if params is not None and len(plan.groups) == 1 and plan.groups[0].params != params:
        raise PlanMismatchError("explicit params do not match the plan's parameters")

    times = grid.times
    n_t = times.size
    out_values = None
    out_flags: list = [()] * n_t
    per_time_eval = [0] * n_t

    for group in plan.groups:
        vals = samples.values[group.node_indices]
        g_params = group.params
        finite = bool(np.all(np.isfinite(vals)))
        shared_flags: tuple = ()
        evaluator = None

        if finite:
            if method == "dehoog":
                table = alg.DeHoogTable(vals, g_params)
                evaluator = table.evaluate
            elif method == "weeks":
                coeffs = alg.weeks_coefficients(vals, g_params)
                evaluator = lambda t, c=coeffs, p=g_params: alg.weeks_eval(c, p, t)
            elif method == "schapery":
                fit = alg.schapery_fit(vals, g_params)
                evaluator = lambda t, f=fit: (alg.schapery_eval(f, t), ())
            elif method == "talbot":
                evaluator = lambda t, v=vals, p=g_params: alg.talbot_invert(v, t, p)
            elif method == "stehfest":
                evaluator = lambda t, v=vals, p=g_params: (alg.stehfest_invert(v, t, p), ())
        else:
            shared_flags = (alg.FLAG_NONFINITE_SAMPLES,)

        for ti in group.time_indices:
            t = float(times[ti])
            if finite:
                value, tflags = evaluator(t)
            else:
                value, tflags = _nan_like(samples.values), ()
            if out_values is None:
                out_values = np.empty((n_t,) + np.shape(value))
            out_values[ti] = value
            out_flags[ti] = shared_flags + tuple(tflags)
            per_time_eval[ti] = int(group.node_indices.size)

    return TimeSeriesResult(method=method, times=times, values=out_values,
                            flags=tuple(out_flags),
                            per_time_evaluations=tuple(per_time_eval),
                            evaluations_measured=samples.evaluations_measured,
                            plan=plan)


class CountingImage:
    """Wrap an image callable with a thread-safe call counter."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, p):
        with self._lock:
            self.calls += 1
        return self.fn(p)
