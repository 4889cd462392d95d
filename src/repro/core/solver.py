"""Pluggable solver strategies for open workflow construction.

The paper's Algorithm 1 is one way to turn (supergraph, specification) into
a workflow; the baselines implement others (forward chaining, a statically
specified graph).  This module extracts that choice into a :class:`Solver`
strategy interface so the workflow manager, the facade, the baselines and
the benchmarks all go through one API and ablations compare *strategies*
rather than code paths.

Two implementations live here:

* :class:`ColoringSolver` — the paper's behaviour: a fresh green/purple/blue
  colouring of the whole supergraph on every solve.
* :class:`MemoizedColoringSolver` — an incremental engine that memoizes the
  exploration (green) state per ``(supergraph, specification, filter)`` and,
  when the graph has grown since the cached colouring, recolors only the
  dirty region reported by :meth:`Supergraph.dirty_ids_since` instead of the
  whole graph.  Re-solving an unchanged graph is a pure cache hit (zero
  colouring work); re-solving after a fragment arrival costs work
  proportional to the arrival's footprint, not the graph size.

Why incremental recolouring is sound: supergraph mutation is *monotone*.
Tasks are immutable once merged (conflicting redefinitions raise), so a
conjunctive node's parent set never changes after it is coloured; labels are
disjunctive, so gaining a producer can only (re)confirm green.  A node
coloured green therefore remains validly green forever, and only the dirty
nodes — plus whatever their colouring newly unlocks, which worklist
propagation discovers — can change colour.  The resulting workflow is
*equivalent* to a from-scratch solve on the final graph: same feasibility
verdict, and on success a valid workflow satisfying the specification
(distances inside the green region may differ from a from-scratch run, so
the tie-breaks of the pruning phase may select a different — equally valid —
alternative among redundant producers).

The pruning (purple/blue) phase always runs on a throwaway copy of the
cached exploration state: it is goal-directed and proportional to the size
of the extracted workflow, which is the cheap part of a solve.

:func:`make_solver` resolves a configuration value (a name, ``None``, or an
existing instance) into a solver, which is what the ``solver=`` hooks on
:class:`~repro.host.workflow_manager.WorkflowManager`,
:class:`~repro.host.host.Host`, :class:`~repro.host.community.Community`
and :class:`~repro.owms.system.OpenWorkflowSystem` accept.
"""

from __future__ import annotations

import abc
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from .construction import (
    ColoringState,
    ConstructionResult,
    ConstructionStatistics,
    WorkflowConstructor,
)
from .errors import ConfigurationError
from .specification import Specification
from .supergraph import Supergraph
from .tasks import Task

TaskFilter = Callable[[Task], bool]


class Solver(abc.ABC):
    """Strategy interface: turn (supergraph, specification) into a result.

    ``task_filter`` restricts construction to tasks the filter accepts
    (capability-aware construction, repair exclusions).  Because a filter is
    an opaque callable, memoizing solvers cannot key a cache on it directly;
    callers that want caching *with* a filter must pass ``filter_token``, a
    hashable value that changes whenever the filter's behaviour changes
    (e.g. the frozenset of available service types).  A filter without a
    token is solved from scratch.
    """

    name: str = "solver"

    #: Cumulative counters across every solve served by this instance.
    solve_count: int
    cache_hit_count: int
    cache_miss_count: int
    incremental_recolor_count: int
    nodes_recolored_total: int

    def __init__(self) -> None:
        self.solve_count = 0
        self.cache_hit_count = 0
        self.cache_miss_count = 0
        self.incremental_recolor_count = 0
        self.nodes_recolored_total = 0

    @abc.abstractmethod
    def solve(
        self,
        supergraph: Supergraph,
        specification: Specification,
        task_filter: TaskFilter | None = None,
        filter_token: Hashable | None = None,
    ) -> ConstructionResult:
        """Find one feasible workflow (or explain why none exists)."""

    def solve_many(
        self,
        supergraph: Supergraph,
        specifications: Iterable[Specification],
        task_filter: TaskFilter | None = None,
        filter_token: Hashable | None = None,
    ) -> list[ConstructionResult]:
        """Solve a batch of specifications against one supergraph.

        The default implementation simply loops; memoizing solvers benefit
        automatically because the batch shares the graph version.
        """

        return [
            self.solve(
                supergraph,
                specification,
                task_filter=task_filter,
                filter_token=filter_token,
            )
            for specification in specifications
        ]

    def invalidate(self) -> None:
        """Drop any cached state (no-op for stateless solvers)."""

    def statistics(self) -> dict[str, int]:
        """Cumulative solver-level counters (per-solve counters live on results)."""

        return {
            "solves": self.solve_count,
            "cache_hits": self.cache_hit_count,
            "cache_misses": self.cache_miss_count,
            "incremental_recolorings": self.incremental_recolor_count,
            "nodes_recolored_total": self.nodes_recolored_total,
        }

    def _record(self, result: ConstructionResult) -> ConstructionResult:
        result.statistics.solver = self.name
        self.solve_count += 1
        self.nodes_recolored_total += result.statistics.nodes_recolored
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}(solves={self.solve_count})"


class ColoringSolver(Solver):
    """The paper's Algorithm 1, run from scratch on every solve."""

    name = "coloring"

    def __init__(self) -> None:
        super().__init__()
        self._constructor = WorkflowConstructor()

    def solve(
        self,
        supergraph: Supergraph,
        specification: Specification,
        task_filter: TaskFilter | None = None,
        filter_token: Hashable | None = None,
    ) -> ConstructionResult:
        result = self._constructor.construct(
            supergraph, specification, task_filter=task_filter
        )
        return self._record(result)


@dataclass
class _CacheEntry:
    """Memoized exploration state for one (graph, specification, filter).

    ``result``/``result_version`` additionally memoize the *finished*
    construction: pruning is deterministic given (graph version, spec,
    filter), so a re-solve at the very version the cached result was
    finalized at can replay it without copying the exploration state or
    pruning again — the repeat-workflow fast path of the shared knowledge
    plane.  ``hits`` counts how often the entry was served; eviction uses
    it to keep popular specifications resident (see
    :meth:`MemoizedColoringSolver._evict_one`).
    """

    version: int
    state: ColoringState
    reached: bool
    result: ConstructionResult | None = None
    result_version: int = -1
    hits: int = 0


class MemoizedColoringSolver(ColoringSolver):
    """Incremental colouring with per-(graph, spec, filter) memoization.

    The cache maps ``(graph_id, triggers, goals, filter_token)`` to the
    exploration state and the graph version it was computed at.  On a hit at
    the same version the green phase is skipped entirely; at a newer version
    only ``supergraph.dirty_ids_since(cached_version)`` is re-seeded.

    The cache is bounded: once ``max_entries`` is exceeded, entries are
    evicted from the least-recently-used end, but with a *hit-rate-aware
    keep* — an LRU entry that has served at least ``popular_hit_threshold``
    hits is given a second chance (its hit count is halved and it rejoins
    the recently-used end) rather than being dropped, so the exploration
    state of popular specifications survives bursts of one-off solves.
    Demotion halves the count, so an entry that stops being asked for is
    evicted after O(log hits) spared rounds; ``eviction_count`` (exposed as
    ``"evictions"`` in :meth:`statistics`) reports how many entries were
    actually dropped.
    """

    name = "memoized"

    def __init__(self, max_entries: int = 256, popular_hit_threshold: int = 4) -> None:
        super().__init__()
        if max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        if popular_hit_threshold < 1:
            raise ConfigurationError("popular_hit_threshold must be at least 1")
        self.max_entries = max_entries
        self.popular_hit_threshold = popular_hit_threshold
        self.eviction_count = 0
        self._cache: OrderedDict[tuple, _CacheEntry] = OrderedDict()

    def invalidate(self) -> None:
        self._cache.clear()

    def cache_size(self) -> int:
        return len(self._cache)

    def statistics(self) -> dict[str, int]:
        stats = super().statistics()
        stats["evictions"] = self.eviction_count
        stats["cache_entries"] = len(self._cache)
        return stats

    def solve(
        self,
        supergraph: Supergraph,
        specification: Specification,
        task_filter: TaskFilter | None = None,
        filter_token: Hashable | None = None,
    ) -> ConstructionResult:
        if task_filter is not None and filter_token is None:
            # An opaque filter cannot be a cache key: fall back to scratch.
            self.cache_miss_count += 1
            result = super().solve(supergraph, specification, task_filter=task_filter)
            result.statistics.solver = self.name
            result.statistics.cache_misses = 1
            return result

        started = time.perf_counter()
        constructor = self._constructor
        # Trigger labels must exist before the version is snapshotted, so a
        # later re-solve of the same specification sees a clean version.
        for label in specification.triggers:
            supergraph.add_label(label)

        key = (
            supergraph.graph_id,
            specification.triggers,
            specification.goals,
            filter_token,
        )
        stats = constructor.begin_statistics(supergraph)
        entry = self._cache.get(key)
        if entry is None:
            state = ColoringState(supergraph)
            reached = constructor.explore(
                supergraph, specification, state, stats, task_filter=task_filter
            )
            entry = _CacheEntry(supergraph.version, state, reached)
            self._store(key, entry)
            self.cache_miss_count += 1
            stats.cache_misses = 1
        else:
            self._cache.move_to_end(key)
            entry.hits += 1
            dirty = supergraph.dirty_ids_since(entry.version)
            if dirty:
                entry.reached = constructor.resume_coloring(
                    supergraph,
                    specification,
                    entry.state,
                    stats,
                    dirty,
                    task_filter=task_filter,
                )
                # Advancing the version is correct even when no node was
                # visited: with early stopping, once every goal is green the
                # dirty region is intentionally left uncoloured — nothing a
                # new fragment adds can change the (already successful)
                # verdict, only offer alternative equally-valid workflows.
                entry.version = supergraph.version
                if stats.nodes_recolored or stats.exploration_iterations:
                    self.incremental_recolor_count += 1
            self.cache_hit_count += 1
            stats.cache_hits = 1
            if (
                entry.result is not None
                and entry.result_version == supergraph.version
            ):
                # Nothing changed since this exact construction was
                # finalized: replay it.  The workflow, coloring state, and
                # selected fragments are immutable (consumers only read the
                # state); only the statistics are rebuilt so the replay
                # reports zero colouring work and its own elapsed time.
                cached = entry.result
                stats.green_nodes = cached.statistics.green_nodes
                stats.blue_nodes = cached.statistics.blue_nodes
                stats.pruning_iterations = cached.statistics.pruning_iterations
                stats.fragments_selected = cached.statistics.fragments_selected
                stats.elapsed_seconds = time.perf_counter() - started
                return self._record(
                    ConstructionResult(
                        specification=cached.specification,
                        workflow=cached.workflow,
                        state=cached.state,
                        statistics=stats,
                        selected_fragment_ids=cached.selected_fragment_ids,
                        reason=cached.reason,
                    )
                )

        # Prune on a throwaway plain-dict copy so the memoized green state
        # survives.  The copy is O(green region), but at C speed; a
        # copy-on-write ChainMap overlay (O(workflow) writes, Python-level
        # reads) measured 4x slower end-to-end on the fig5 arrival benchmark
        # because pruning and finalization read far more than they write.
        prune_state = entry.state.exploration_copy()
        result = constructor.finalize(
            supergraph, specification, prune_state, stats, entry.reached, started
        )
        entry.result = result
        entry.result_version = supergraph.version
        return self._record(result)

    def _store(self, key: tuple, entry: _CacheEntry) -> None:
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_entries:
            self._evict_one()

    def _evict_one(self) -> None:
        """Drop one entry: the least-recently-used *unpopular* one.

        Walks from the LRU end; entries with at least
        ``popular_hit_threshold`` recorded hits are demoted (hits halved)
        and re-queued at the recently-used end instead of dropped.  The
        walk is bounded by the cache size and demotion strictly shrinks hit
        counts, so it always terminates with an eviction.
        """

        for _ in range(len(self._cache)):
            key, entry = next(iter(self._cache.items()))
            if entry.hits >= self.popular_hit_threshold:
                entry.hits //= 2
                self._cache.move_to_end(key)
                continue
            del self._cache[key]
            self.eviction_count += 1
            return
        self._cache.popitem(last=False)  # pragma: no cover - defensive
        self.eviction_count += 1


#: Registry of named strategies accepted by ``solver=`` configuration hooks.
SOLVER_REGISTRY: dict[str, Callable[..., Solver]] = {
    "coloring": ColoringSolver,
    "scratch": ColoringSolver,
    "memoized": MemoizedColoringSolver,
    "incremental": MemoizedColoringSolver,
}

DEFAULT_SOLVER = "memoized"


def make_solver(solver: Solver | str | None = None) -> Solver:
    """Resolve a ``solver=`` configuration value into a :class:`Solver`.

    Accepts an existing instance (returned as-is), a registry name
    (``"coloring"``/``"scratch"``, ``"memoized"``/``"incremental"``), or
    ``None`` for the default (memoized) strategy.
    """

    if solver is None:
        solver = DEFAULT_SOLVER
    if isinstance(solver, Solver):
        return solver
    if isinstance(solver, str):
        factory = SOLVER_REGISTRY.get(solver)
        if factory is None:
            raise ConfigurationError(
                f"unknown solver {solver!r}; known: {sorted(SOLVER_REGISTRY)}"
            )
        return factory()
    raise ConfigurationError(
        f"solver must be a Solver instance, a name, or None; got {solver!r}"
    )


def results_equivalent(
    a: ConstructionResult, b: ConstructionResult
) -> bool:
    """Solver-level equivalence of two construction results.

    Two strategies (or one strategy run incrementally vs from scratch) are
    equivalent on a problem when they agree on feasibility and, on success,
    both produce a *valid* workflow achieving the specification: its inset
    draws only on the triggering conditions and every goal label is either
    produced by the workflow or a trigger carried through as a free label
    (the same acceptance the construction property tests use — strict
    ``W.out = ω`` is unattainable when a goal label is also a trigger the
    workflow consumes).  The workflows need not be identical: redundant
    producers leave the pruning phase legitimate tie-break freedom.
    """

    if a.succeeded != b.succeeded:
        return False
    if not a.succeeded:
        return True

    def achieves(result: ConstructionResult) -> bool:
        workflow = result.workflow
        assert workflow is not None
        spec = result.specification
        return (
            workflow.is_valid()
            and workflow.inset <= spec.triggers
            and spec.goals <= set(workflow.labels) | spec.triggers
        )

    return achieves(a) and achieves(b)
