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

import operator
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algorithms as alg

#: Relative tolerance below which two planned p values are considered the
#: same evaluation.  Chosen below quadrature sensitivity, above rounding.
DEDUP_RTOL = 1e-12

FLAG_UNDEFINED_BEFORE_DELAY = "undefined-before-delay"
#: Flag of the times of a plan group whose inversion raised.
FLAG_INVERSION_FAILED = "inversion-failed"


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
        if not np.all(np.isfinite(t)):
            raise ValueError("all times must be finite")
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
    single-point grid (n = 1) is [t_min] and may also take the 'explicit'
    tag of :class:`TimeGrid`.
    """
    spacings = {"logarithmic": np.geomspace, "linear": np.linspace}
    if spacing not in spacings and not (n == 1 and spacing == "explicit"):
        raise ValueError(f"unknown spacing {spacing!r} (use 'logarithmic' or 'linear')")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not np.isfinite([t_min, t_max]).all():
        raise ValueError("t_min and t_max must be finite")
    if t_min <= 0:
        raise ValueError("t_min must resolve to a positive time")
    if t_max < t_min:
        raise ValueError("t_max must be >= t_min")
    if n == 1:
        return TimeGrid(np.array([t_min]), spacing)
    if t_max == t_min:
        raise ValueError("t_max must exceed t_min for n > 1")
    return TimeGrid(spacings[spacing](t_min, t_max, n), spacing)


@dataclass(frozen=True)
class PlanGroup:
    """One parameter set and its node subset, inverting one or more times."""

    params: object
    node_indices: np.ndarray
    time_indices: np.ndarray


@dataclass(frozen=True)
class SamplePlan:
    """All distinct Laplace parameters a (method, grid, strategy) run needs."""

    method: str
    grid: TimeGrid
    p: np.ndarray
    groups: tuple
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


@dataclass
class TimeSeriesResult:
    """Inverted values plus per-time diagnostics."""

    method: str
    times: np.ndarray
    values: np.ndarray
    flags: tuple


@dataclass(frozen=True)
class _Method:
    """Everything the planner and `invert_all` know about one inverter.

    rule_of_thumb(terms, t_lo, t_hi) gives the free parameters for a
    group of times spanning [t_lo, t_hi], taking the abscissa of
    convergence as 0; nodes(params, t_hi) gives the group's Laplace
    parameters; invert(samples, params, times) inverts a (groups, nodes,
    *channels) sample stack at each group's times and returns (values,
    flags) in group order.  per_time marks a method whose
    nodes depend explicitly on t, so it can only plan per time.
    """

    rule_of_thumb: Callable
    nodes: Callable
    invert: Callable
    per_time: bool = False


#: The one place that knows each method; a new inverter is one entry.
_METHODS = {
    "stehfest": _Method(
        rule_of_thumb=lambda terms, lo, hi: alg.StehfestParams.rule_of_thumb(terms),
        nodes=lambda params, t: alg.stehfest_nodes(t, params).astype(complex),
        invert=alg.stehfest_batch,
        per_time=True),
    "schapery": _Method(
        rule_of_thumb=lambda terms, lo, hi: alg.SchaperyParams.geometric(terms, lo, hi),
        nodes=lambda params, t: np.asarray(params.nodes, dtype=complex),
        invert=alg.schapery_batch),
    "weeks": _Method(
        rule_of_thumb=lambda terms, lo, hi: alg.WeeksParams.rule_of_thumb(terms, hi),
        nodes=lambda params, t: alg.weeks_nodes(params),
        invert=alg.weeks_batch),
    "talbot": _Method(
        rule_of_thumb=lambda terms, lo, hi: alg.TalbotParams.rule_of_thumb(terms, hi),
        nodes=lambda params, t: alg.talbot_contour(params.r, params.n_nodes),
        invert=alg.talbot_batch),
    "dehoog": _Method(
        rule_of_thumb=lambda terms, lo, hi: alg.DeHoogParams.rule_of_thumb(terms, hi),
        nodes=lambda params, t: alg.dehoog_nodes(params),
        invert=alg.dehoog_batch),
}

METHODS = tuple(_METHODS)

#: Methods whose nodes depend on t, so PER_TIME_OPTIMAL is their only strategy.
PER_TIME_METHODS = tuple(m for m in METHODS if _METHODS[m].per_time)


def _dedup(nodes: list) -> tuple:
    """Merge near-identical p values; returns (distinct array, index arrays).

    Greedy in plan order over the complex node arrays: a node joins the
    earliest-made representative r with |v - r| <= DEDUP_RTOL * max(|v|, |r|),
    or becomes a new one.  Any such r has ||v| - |r|| <= |v - r| <=
    DEDUP_RTOL * |v| / (1 - DEDUP_RTOL), so one sort by modulus and
    `searchsorted` give every node a window holding all its candidates in
    O(n log n), and the rule is replayed in Python only for nodes with a
    candidate besides themselves.  The window's half-width is twice that
    bound, and at least the smallest normal double, so that rounding
    cannot drop a candidate.  With an infinite modulus the rule holds at
    any distance, so a node of infinite or NaN modulus has every earlier
    node as a candidate and is a candidate of every later one.
    """
    flat = np.concatenate(nodes)
    n = flat.size
    with np.errstate(over="ignore"):
        mod = np.abs(flat)
        finite = np.isfinite(mod)
        regular = np.flatnonzero(finite)
        order = regular[np.argsort(mod[regular], kind="stable")]
        key = mod[order]
        half = np.maximum(2.0 * DEDUP_RTOL * key, np.finfo(float).tiny)
        lo = np.searchsorted(key, key - half, side="left")
        hi = np.searchsorted(key, key + half, side="right")

    irregular = np.flatnonzero(~finite).tolist()
    crowded = np.flatnonzero(hi - lo > 1) if not irregular else np.arange(regular.size)
    candidates = {i: range(i) for i in irregular}
    position = order.tolist()
    for i, a, b in zip(order[crowded].tolist(), lo[crowded].tolist(), hi[crowded].tolist()):
        candidates[i] = sorted(position[a:b] + irregular)

    rep = list(range(n))
    for i in sorted(candidates):
        v = flat[i]
        for j in candidates[i]:
            if j >= i:
                break
            if rep[j] == j and abs(v - flat[j]) <= DEDUP_RTOL * max(abs(v), abs(flat[j])):
                rep[i] = j
                break
    rep = np.array(rep, dtype=int)
    first = rep == np.arange(n)
    index = (np.cumsum(first) - 1)[rep]
    return flat[first], np.split(index, np.cumsum([arr.size for arr in nodes])[:-1])


def plan_samples(method: str, grid: TimeGrid, terms: int,
                 strategy: SamplingStrategy, params=None) -> SamplePlan:
    """Plan every distinct Laplace parameter needed to invert a time grid.

    PER_TIME_OPTIMAL emits each method's rule-of-thumb nodes per time;
    SHARED_GLOBAL emits one vector sized to the grid's largest time;
    SHARED_PER_LOG_CYCLE groups times by floor(log10 t) and emits one
    vector per cycle.  Identical p values (relative tolerance 1e-12) are
    deduplicated across the whole plan.

    Methods whose nodes depend explicitly on t (Stehfest's k ln2 / t)
    accept only PER_TIME_OPTIMAL.  Odd Stehfest term requests are
    rounded up to the next even order and the effective order is recorded
    in the group parameters.

    `terms` must be an integer >= 1, a numpy integer too.  `params`, if
    given, serves every group in place of the rule of thumb, which takes
    the abscissa of convergence as 0: an image that converges only for
    Re p > sigma > 0 plans Weeks or de Hoog with params from
    ``WeeksParams.rule_of_thumb(terms, grid.t_max, sigma)`` or
    ``DeHoogParams.rule_of_thumb(terms, grid.t_max, sigma)``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    try:
        terms = operator.index(terms)
    except TypeError:
        raise ValueError(f"terms must be an integer, not {terms!r}") from None
    if terms < 1:
        raise ValueError("terms must be >= 1")
    spec = _METHODS[method]
    if spec.per_time and strategy is not SamplingStrategy.PER_TIME_OPTIMAL:
        raise InvalidStrategyError(
            f"{method} requires the per-time strategy: its sample points "
            "depend explicitly on t")

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
    for part in partitions:
        t_lo = float(times[part[0]])
        t_hi = float(times[part[-1]])
        g_params = params if params is not None else spec.rule_of_thumb(terms, t_lo, t_hi)
        node_lists.append(spec.nodes(g_params, t_hi))
        groups.append((g_params, part))

    distinct, index_arrays = _dedup(node_lists)
    plan_groups = tuple(
        PlanGroup(params=g_params, node_indices=idx, time_indices=part)
        for (g_params, part), idx in zip(groups, index_arrays)
    )
    return SamplePlan(method=method, grid=grid, p=distinct, groups=plan_groups,
                      raw_evaluations=sum(nodes.size for nodes in node_lists))


def evaluate_image(plan: SamplePlan, image) -> SampleSet:
    """Evaluate the image function once per distinct planned p.

    The image is a callable p -> complex (or a fixed-length complex
    vector, for several observables sharing one model solve), called once
    per planned p, in plan order, in the calling thread.  An image that
    raises raises ImageEvaluationError carrying that p.  An image whose
    value changes shape between calls raises ImageEvaluationError at the
    first p whose value differs in shape from the first one.  Non-finite
    values are kept; :func:`invert_all` flags the groups that read them.
    """
    if plan.p.size == 0:
        raise ValueError("plan is empty")
    p_list = plan.p.tolist()
    raw = []
    try:
        for p in p_list:
            raw.append(image(p))
    except Exception as exc:  # noqa: BLE001 - re-raised with context
        raise ImageEvaluationError(p, exc) from exc

    try:
        values = np.array(raw, dtype=complex)
    except ValueError as exc:
        shape = np.shape(raw[0])
        for p, v in zip(p_list, raw):
            if np.shape(v) != shape:
                raise ImageEvaluationError(p, ValueError(
                    f"value of shape {np.shape(v)}, but shape {shape} "
                    f"at p = {p_list[0]!r}")) from exc
        raise
    return SampleSet(plan=plan, values=values)


def invert_all(method: str, samples: SampleSet, grid: TimeGrid) -> TimeSeriesResult:
    """Invert every grid time from a sample set produced for that method.

    Each plan group inverts with its own parameters, and the whole plan
    inverts in one pass per method: every group has as many nodes as the
    others, so their samples form one (groups, nodes, *channels) stack.
    Values are pure functions of (samples, parameters, t).  Numerically
    degenerate times carry diagnostic flags and NaN values instead of
    raising, so one bad time does not abort a sweep; a group with a
    non-finite sample inverts to a flagged NaN at each of its times.  If
    the pass raises, the groups invert one at a time, which rounds each
    group as the pass does, and a group that raises alone gets NaN and
    FLAG_INVERSION_FAILED at each of its times.
    """
    plan = samples.plan
    if plan.method != method:
        raise PlanMismatchError(f"samples were planned for {plan.method!r}, not {method!r}")
    if not np.array_equal(plan.grid.times, grid.times):
        raise PlanMismatchError("samples were planned for a different time grid")

    sizes = {group.node_indices.size for group in plan.groups}
    if len(sizes) > 1:
        raise PlanMismatchError(f"plan groups differ in node count: {sorted(sizes)}")

    times = grid.times
    stack = samples.values[np.stack([group.node_indices for group in plan.groups])]
    values = np.full(times.shape + stack.shape[2:], np.nan)
    flags = [(alg.FLAG_NONFINITE_SAMPLES,)] * times.size
    finite = np.isfinite(stack).reshape(stack.shape[0], -1).all(axis=1)
    groups = [group for group, ok in zip(plan.groups, finite.tolist()) if ok]

    def invert(stack, groups):
        where = np.concatenate([group.time_indices for group in groups])
        values[where], inverted = _METHODS[method].invert(
            stack, [group.params for group in groups],
            [times[group.time_indices] for group in groups])
        for ti, tflags in zip(where.tolist(), inverted):
            flags[ti] = tflags

    if len(groups) < len(plan.groups):
        stack = stack[finite]
    if groups:
        try:
            invert(stack, groups)
        except Exception:  # noqa: BLE001 - each group raises again on its own
            for group, g_stack in zip(groups, stack):
                try:
                    invert(g_stack[None], [group])
                except Exception:  # noqa: BLE001 - this group's times fail
                    for ti in group.time_indices.tolist():
                        flags[ti] = (FLAG_INVERSION_FAILED,)

    return TimeSeriesResult(method=method, times=times, values=values,
                            flags=tuple(flags))


class CountingImage:
    """Wrap an image callable with a call counter (not thread-safe)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        return self.fn(p)
