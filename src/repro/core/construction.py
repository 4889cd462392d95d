"""Algorithm 1 of the paper: open workflow construction by graph coloring.

Given the triggering conditions ι, the goal set ω, and a knowledge set ``K``
of workflow fragments, the algorithm proceeds in three steps:

1. **Supergraph construction** — merge every fragment of ``K`` into a single
   graph ``G`` (see :class:`~repro.core.supergraph.Supergraph`).
2. **Exploration phase** — colour the nodes of ``G`` *green*, starting from
   the labels in ι (distance 0) and growing outwards.  A disjunctive node
   becomes green as soon as one of its parents is green (distance =
   min parent distance + 1); a conjunctive node becomes green once all of
   its parents are green (distance = max parent distance + 1).  The phase
   stops when every goal label is green or no further colouring is
   possible.
3. **Pruning phase** — starting from ω (coloured *purple*) walk backwards.
   For each purple node select its *required parents*: none when the node
   has distance 0, the minimum-distance parent when the node is
   disjunctive, all parents when conjunctive.  The selected edges are
   coloured *blue*, green parents become purple, and the node itself turns
   blue.  When no purple nodes remain, the blue nodes and edges form a
   valid workflow satisfying the specification.

The implementation below follows the paper faithfully (including the
distance bookkeeping and the colour names, which make traces easy to map
back to the pseudo-code) while replacing the nondeterministic "pick any node
matching a guard" with a deterministic worklist so results are reproducible.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import ConstructionError, UnsatisfiableSpecificationError
from .fragments import KnowledgeSet, WorkflowFragment
from .graph import NodeRef
from .specification import Specification
from .supergraph import Supergraph
from .tasks import Task
from .workflow import Workflow

INFINITE_DISTANCE = float("inf")


class Color(enum.Enum):
    """Node colours used by Algorithm 1."""

    UNCOLORED = "uncolored"
    GREEN = "green"
    PURPLE = "purple"
    BLUE = "blue"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class ColoringState:
    """Mutable per-run colouring annotations for the supergraph nodes."""

    colors: dict[NodeRef, Color] = field(default_factory=dict)
    distances: dict[NodeRef, float] = field(default_factory=dict)
    blue_edges: set[tuple[NodeRef, NodeRef]] = field(default_factory=set)

    def color_of(self, node: NodeRef) -> Color:
        return self.colors.get(node, Color.UNCOLORED)

    def distance_of(self, node: NodeRef) -> float:
        return self.distances.get(node, INFINITE_DISTANCE)

    def set(self, node: NodeRef, color: Color, distance: float | None = None) -> None:
        self.colors[node] = color
        if distance is not None:
            self.distances[node] = distance

    def nodes_with_color(self, color: Color) -> set[NodeRef]:
        return {node for node, c in self.colors.items() if c is color}


@dataclass
class ConstructionStatistics:
    """Counters describing the work done by one construction run.

    ``nodes_recolored`` counts the nodes whose colour or distance actually
    changed during the run: for a from-scratch solve it equals the size of
    the coloured region, for an incremental re-solve (see
    :class:`repro.core.solver.MemoizedColoringSolver`) it measures only the
    dirty frontier that had to be revisited.  ``cache_hits`` /
    ``cache_misses`` are filled in by memoizing solvers; ``solver`` names
    the strategy that produced the result.
    """

    supergraph_tasks: int = 0
    supergraph_labels: int = 0
    supergraph_edges: int = 0
    exploration_iterations: int = 0
    pruning_iterations: int = 0
    green_nodes: int = 0
    blue_nodes: int = 0
    fragments_considered: int = 0
    fragments_selected: int = 0
    nodes_recolored: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    solver: str = ""
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict[str, float | str]:
        return {
            "supergraph_tasks": self.supergraph_tasks,
            "supergraph_labels": self.supergraph_labels,
            "supergraph_edges": self.supergraph_edges,
            "exploration_iterations": self.exploration_iterations,
            "pruning_iterations": self.pruning_iterations,
            "green_nodes": self.green_nodes,
            "blue_nodes": self.blue_nodes,
            "fragments_considered": self.fragments_considered,
            "fragments_selected": self.fragments_selected,
            "nodes_recolored": self.nodes_recolored,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "solver": self.solver,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class ConstructionResult:
    """Outcome of a construction run.

    ``workflow`` is ``None`` when no feasible workflow exists for the given
    specification and knowledge set, in which case ``reason`` explains why.
    """

    specification: Specification
    workflow: Workflow | None
    state: ColoringState
    statistics: ConstructionStatistics
    selected_fragment_ids: frozenset[str] = frozenset()
    reason: str = ""

    @property
    def succeeded(self) -> bool:
        return self.workflow is not None

    def require_workflow(self) -> Workflow:
        """Return the workflow or raise when construction failed."""

        if self.workflow is None:
            raise UnsatisfiableSpecificationError(
                f"no feasible workflow for {self.specification!r}: {self.reason}"
            )
        return self.workflow

    def __repr__(self) -> str:
        status = "ok" if self.succeeded else f"failed ({self.reason})"
        return f"ConstructionResult({self.specification.name!r}, {status})"


class WorkflowConstructor:
    """Runs Algorithm 1 over a supergraph.

    The constructor is reusable: each call to :meth:`construct` creates a
    fresh :class:`ColoringState`, so one constructor can serve many
    specifications against the same (possibly growing) supergraph.

    Parameters
    ----------
    stop_exploration_early:
        When true (the paper's behaviour) the exploration phase stops as
        soon as every goal label is green.  When false the exploration runs
        to quiescence, which yields globally minimal distances — useful for
        analysis but slightly more work.
    """

    def __init__(self, stop_exploration_early: bool = True) -> None:
        self.stop_exploration_early = stop_exploration_early
        self._task_filter: Callable[[Task], bool] | None = None

    # -- public API -------------------------------------------------------
    def construct(
        self,
        supergraph: Supergraph,
        specification: Specification,
        task_filter: Callable[[Task], bool] | None = None,
    ) -> ConstructionResult:
        """Identify one feasible workflow within ``supergraph``.

        ``task_filter`` optionally restricts the search to tasks for which
        it returns ``True``; the workflow manager uses this to exclude
        tasks whose required service no participant in the community can
        provide (capability-aware construction).
        """

        started = time.perf_counter()
        state = ColoringState()
        stats = self.begin_statistics(supergraph)
        for label in specification.triggers:
            supergraph.add_label(label)

        # Even when some goal labels are unknown to the local supergraph the
        # exploration phase still runs: the coloured region it produces is
        # what the incremental variant uses to decide which labels to query
        # the community about next.
        reached = self.explore(
            supergraph, specification, state, stats, task_filter=task_filter
        )
        return self.finalize(supergraph, specification, state, stats, reached, started)

    def begin_statistics(self, supergraph: Supergraph) -> ConstructionStatistics:
        """Fresh statistics pre-filled with the supergraph's current size."""

        return ConstructionStatistics(
            supergraph_tasks=len(supergraph.task_names),
            supergraph_labels=len(supergraph.labels),
            supergraph_edges=supergraph.edge_count,
            fragments_considered=len(supergraph.fragment_ids),
        )

    def finalize(
        self,
        supergraph: Supergraph,
        specification: Specification,
        state: ColoringState,
        stats: ConstructionStatistics,
        reached: bool,
        started: float,
    ) -> ConstructionResult:
        """Shared tail of a construction run: prune on success, explain failure."""

        if not reached:
            stats.elapsed_seconds = time.perf_counter() - started
            missing_goals = [
                g for g in specification.goals if not supergraph.has_label(g)
            ]
            if missing_goals:
                reason = (
                    "goal labels unknown to the community: "
                    f"{sorted(missing_goals)}"
                )
            else:
                unreached = [
                    g
                    for g in specification.goals
                    if state.color_of(NodeRef.label(g)) is not Color.GREEN
                ]
                reason = (
                    "goal labels not reachable from the triggers: "
                    f"{sorted(unreached)}"
                )
            return ConstructionResult(specification, None, state, stats, reason=reason)

        workflow = self._prune(supergraph, specification, state, stats)
        selected = self._selected_fragments(supergraph, workflow)
        stats.fragments_selected = len(selected)
        stats.green_nodes = len(state.nodes_with_color(Color.GREEN)) + len(
            state.nodes_with_color(Color.BLUE)
        )
        stats.blue_nodes = len(state.nodes_with_color(Color.BLUE))
        stats.elapsed_seconds = time.perf_counter() - started
        return ConstructionResult(
            specification,
            workflow,
            state,
            stats,
            selected_fragment_ids=selected,
        )

    # -- exploration phase --------------------------------------------------
    def explore(
        self,
        graph: Supergraph,
        specification: Specification,
        state: ColoringState,
        stats: ConstructionStatistics,
        task_filter: Callable[[Task], bool] | None = None,
    ) -> bool:
        """Colour the graph green from scratch, starting at the triggers."""

        self._task_filter = task_filter
        seeds = self._seed_triggers(graph, specification, state, stats)
        return self._propagate(graph, specification, state, stats, seeds)

    def resume_coloring(
        self,
        graph: Supergraph,
        specification: Specification,
        state: ColoringState,
        stats: ConstructionStatistics,
        dirty: Iterable[NodeRef],
        task_filter: Callable[[Task], bool] | None = None,
    ) -> bool:
        """Extend an existing green colouring after graph mutations.

        ``state`` must be the exploration state of an earlier
        :meth:`explore` / :meth:`resume_coloring` call for the *same*
        specification and task filter against the same (since grown) graph;
        ``dirty`` is the set of nodes added or whose adjacency changed since
        (as reported by :meth:`Supergraph.dirty_since`).  Because fragment
        addition is monotone — tasks are immutable once merged and labels
        only ever gain producers/consumers — every previously green node
        remains validly green, so only the dirty region and whatever it
        newly unlocks needs to be (re)visited.
        """

        self._task_filter = task_filter
        seeds = self._seed_triggers(graph, specification, state, stats)
        seeds.extend(sorted(n for n in dirty if graph.has_node(n)))
        return self._propagate(graph, specification, state, stats, seeds)

    def _seed_triggers(
        self,
        graph: Supergraph,
        specification: Specification,
        state: ColoringState,
        stats: ConstructionStatistics,
    ) -> list[NodeRef]:
        """Colour trigger labels green at distance 0; return nodes to enqueue."""

        seeds: list[NodeRef] = []
        for label in sorted(specification.triggers):
            node = NodeRef.label(label)
            if not graph.has_label(label):
                continue
            if state.color_of(node) is Color.GREEN and state.distance_of(node) == 0.0:
                continue
            state.set(node, Color.GREEN, 0.0)
            stats.nodes_recolored += 1
            # Sorted: children() is a frozenset, and its iteration order
            # follows the interpreter's string hash seed.  The final
            # colouring is visit-order independent, but the effort counters
            # (a node coloured at a provisional distance and improved later
            # counts twice) are not — and trial results must be
            # byte-identical across interpreters
            # (tests/integration/test_hash_seed_determinism.py).
            seeds.extend(sorted(graph.children(node)))
        return seeds

    def _propagate(
        self,
        graph: Supergraph,
        specification: Specification,
        state: ColoringState,
        stats: ConstructionStatistics,
        initial: Iterable[NodeRef],
    ) -> bool:
        goal_nodes = {NodeRef.label(g) for g in specification.goals}
        green_goals = {
            n for n in goal_nodes if state.color_of(n) is Color.GREEN
        }

        worklist: deque[NodeRef] = deque()
        queued: set[NodeRef] = set()

        def enqueue(node: NodeRef) -> None:
            if node not in queued:
                queued.add(node)
                worklist.append(node)

        for node in initial:
            enqueue(node)

        if self.stop_exploration_early and green_goals >= goal_nodes:
            return True

        while worklist:
            node = worklist.popleft()
            queued.discard(node)
            stats.exploration_iterations += 1

            updated = self._try_color_green(graph, node, state)
            if not updated:
                continue
            stats.nodes_recolored += 1
            if node in goal_nodes:
                green_goals.add(node)
                if self.stop_exploration_early and green_goals >= goal_nodes:
                    return True
            # Sorted for cross-interpreter determinism (see _seed_triggers).
            for child in sorted(graph.children(node)):
                enqueue(child)

        return green_goals >= goal_nodes

    def _try_color_green(
        self, graph: Supergraph, node: NodeRef, state: ColoringState
    ) -> bool:
        """Apply the exploration-phase guard/update for a single node.

        Returns ``True`` when the node's colour or distance changed.
        """

        if (
            node.is_task
            and self._task_filter is not None
            and not self._task_filter(graph.task(node.name))
        ):
            return False
        # Degree-index early-out: a parentless node can never be coloured by
        # propagation (triggers are seeded directly), so skip building the
        # parent set for it.
        if graph.in_degree(node) == 0:
            return False
        parents = graph.parents(node)
        green_parents = [
            p for p in parents if state.color_of(p) is Color.GREEN
        ]
        if graph.is_disjunctive_node(node):
            if not green_parents:
                return False
            d = min(state.distance_of(p) for p in green_parents)
        else:
            if not parents or len(green_parents) != len(parents):
                return False
            d = max(state.distance_of(p) for p in green_parents)

        current_color = state.color_of(node)
        new_distance = d + 1
        if current_color is Color.UNCOLORED or (
            current_color is Color.GREEN and state.distance_of(node) > new_distance
        ):
            state.set(node, Color.GREEN, new_distance)
            return True
        return False

    # -- pruning phase ---------------------------------------------------------
    def _prune(
        self,
        graph: Supergraph,
        specification: Specification,
        state: ColoringState,
        stats: ConstructionStatistics,
    ) -> Workflow:
        purple: list[NodeRef] = []
        for label in sorted(specification.goals):
            node = NodeRef.label(label)
            if state.color_of(node) is not Color.GREEN:
                raise ConstructionError(
                    f"goal label {label!r} was not green at the start of pruning"
                )
            state.set(node, Color.PURPLE)
            purple.append(node)

        while purple:
            node = purple.pop(0)
            stats.pruning_iterations += 1
            required_parents = self._required_parents(graph, node, state)
            for parent in required_parents:
                state.blue_edges.add((parent, node))
                if state.color_of(parent) is Color.GREEN:
                    state.set(parent, Color.PURPLE)
                    purple.append(parent)
            state.set(node, Color.BLUE)

        return self._blue_workflow(graph, specification, state)

    def _required_parents(
        self, graph: Supergraph, node: NodeRef, state: ColoringState
    ) -> list[NodeRef]:
        if state.distance_of(node) == 0:
            return []
        parents = graph.parents(node)
        if graph.is_disjunctive_node(node):
            colored = [
                p
                for p in parents
                if state.color_of(p) in (Color.GREEN, Color.PURPLE, Color.BLUE)
            ]
            if not colored:
                raise ConstructionError(
                    f"disjunctive node {node!r} has no coloured parent during pruning"
                )
            best = min(colored, key=lambda p: (state.distance_of(p), p))
            return [best]
        return sorted(parents)

    def _blue_workflow(
        self,
        graph: Supergraph,
        specification: Specification,
        state: ColoringState,
    ) -> Workflow:
        blue_nodes = state.nodes_with_color(Color.BLUE)
        blue_tasks = [n for n in blue_nodes if n.is_task]
        blue_labels = {n.name for n in blue_nodes if n.is_label}

        # Index the blue edges once (O(edges)) instead of scanning the whole
        # edge set per task (O(tasks * edges)) — this is the dominant cost of
        # extracting large workflows.
        inputs_by_task: dict[NodeRef, set[str]] = {}
        outputs_by_task: dict[NodeRef, set[str]] = {}
        for parent, child in state.blue_edges:
            if parent.is_label and child.is_task:
                inputs_by_task.setdefault(child, set()).add(parent.name)
            elif parent.is_task and child.is_label:
                outputs_by_task.setdefault(parent, set()).add(child.name)

        tasks: list[Task] = []
        for node in sorted(blue_tasks):
            original = graph.task(node.name)
            kept_inputs = inputs_by_task.get(node, set())
            kept_outputs = outputs_by_task.get(node, set())
            # A conjunctive task keeps all of its declared inputs (they are
            # all blue by construction); a disjunctive task keeps exactly the
            # selected minimum-distance input.  Outputs not needed by any
            # blue label are pruned, but the task must keep at least one.
            inputs = original.inputs if original.is_conjunctive else frozenset(kept_inputs)
            outputs = frozenset(kept_outputs) or original.outputs
            tasks.append(original.with_inputs(inputs).with_outputs(outputs))

        return Workflow(tasks, extra_labels=blue_labels & specification.goals)

    # -- attribution -------------------------------------------------------------
    def _selected_fragments(
        self, graph: Supergraph, workflow: Workflow
    ) -> frozenset[str]:
        selected: set[str] = set()
        for task_name in workflow.task_names:
            fragments = graph.fragments_for_task(task_name)
            if fragments:
                selected.add(sorted(fragments)[0])
        return frozenset(selected)


def construct_workflow(
    knowledge: KnowledgeSet | Iterable[WorkflowFragment],
    specification: Specification,
    stop_exploration_early: bool = True,
) -> ConstructionResult:
    """Convenience wrapper: build the supergraph from ``knowledge`` and run Algorithm 1."""

    if not isinstance(knowledge, KnowledgeSet):
        knowledge = KnowledgeSet(knowledge)
    supergraph = Supergraph(knowledge)
    constructor = WorkflowConstructor(stop_exploration_early=stop_exploration_early)
    return constructor.construct(supergraph, specification)


def is_feasible(
    knowledge: KnowledgeSet | Iterable[WorkflowFragment],
    specification: Specification,
) -> bool:
    """True when some workflow composed from ``knowledge`` satisfies ``specification``."""

    return construct_workflow(knowledge, specification).succeeded


def describe_coloring(state: ColoringState) -> Mapping[str, int]:
    """Summarise a colouring state (used by traces and tests)."""

    summary = {color.value: 0 for color in Color}
    for color in state.colors.values():
        summary[color.value] += 1
    summary["blue_edges"] = len(state.blue_edges)
    return summary
