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

Inside, both phases run over the supergraph's dense integer node ids (its
node table, see :mod:`repro.core.supergraph`): :class:`ColoringState` maps
ids to colours and distances, and parent and child id lists are read as
stored, without building or hashing a :class:`NodeRef`.  Ties still break
in ``NodeRef`` order.  Child lists are stored in name order, so children
are enqueued by name, and a distance tie between the parents of a
disjunctive node goes to the smallest name.  The effort counters, the
workflow and every trial result are therefore those of the ``NodeRef``
formulation, which ``tests/reference/coloring.py`` keeps as the oracle.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass
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


class ColoringState:
    """Colouring annotations of one run, keyed by supergraph node id.

    Algorithm 1 reads and writes the id-keyed maps: ``color_ids``,
    ``distance_ids`` and ``blue_edge_ids`` (pairs of parent and child ids).
    The :class:`NodeRef` reads (:meth:`color_of`, :meth:`distance_of`,
    :attr:`colors`, :attr:`distances`, :attr:`blue_edges`) resolve the ids
    through the supergraph the state colours, for traces, renderers and
    tests.
    """

    __slots__ = ("graph", "color_ids", "distance_ids", "blue_edge_ids")

    def __init__(self, graph: Supergraph) -> None:
        self.graph = graph
        self.color_ids: dict[int, Color] = {}
        self.distance_ids: dict[int, float] = {}
        self.blue_edge_ids: set[tuple[int, int]] = set()

    def color_of(self, node: NodeRef) -> Color:
        node_id = self.graph.node_id(node)
        if node_id is None:
            return Color.UNCOLORED
        return self.color_ids.get(node_id, Color.UNCOLORED)

    def distance_of(self, node: NodeRef) -> float:
        node_id = self.graph.node_id(node)
        if node_id is None:
            return INFINITE_DISTANCE
        return self.distance_ids.get(node_id, INFINITE_DISTANCE)

    @property
    def colors(self) -> dict[NodeRef, Color]:
        ref = self.graph.node_ref
        return {ref(node): color for node, color in self.color_ids.items()}

    @property
    def distances(self) -> dict[NodeRef, float]:
        ref = self.graph.node_ref
        return {ref(node): d for node, d in self.distance_ids.items()}

    @property
    def blue_edges(self) -> set[tuple[NodeRef, NodeRef]]:
        ref = self.graph.node_ref
        return {(ref(p), ref(c)) for p, c in self.blue_edge_ids}


@dataclass
class ConstructionStatistics:
    """Counters describing the work done by one construction run.

    ``nodes_recolored`` counts the colourings the exploration phase made:
    the size of the coloured region, plus one for each node whose distance
    a later visit improved.  ``cache_hits`` and ``cache_misses`` are always
    0, since every solve colours from scratch; they are kept only because
    the repository benchmark's tracer still reads them.
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
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
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
        state = ColoringState(supergraph)
        stats = ConstructionStatistics(
            supergraph_tasks=supergraph.task_count,
            supergraph_labels=supergraph.label_count,
            supergraph_edges=supergraph.edge_count,
            fragments_considered=supergraph.fragment_count,
        )
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

    def finalize(
        self,
        supergraph: Supergraph,
        specification: Specification,
        state: ColoringState,
        stats: ConstructionStatistics,
        reached: bool,
        started: float,
    ) -> ConstructionResult:
        """Tail of a construction run: prune on success, explain failure."""

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

        blue = self._prune(supergraph, specification, state, stats)
        workflow = self._blue_workflow(supergraph, specification, state, blue)
        selected = self._selected_fragments(supergraph, workflow)
        stats.fragments_selected = len(selected)
        # Pruning turns every purple node blue, so the coloured nodes are
        # exactly the green and blue ones.
        stats.green_nodes = len(state.color_ids)
        stats.blue_nodes = len(blue)
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
        colors, distances = state.color_ids, state.distance_ids
        seeds: list[int] = []
        for label in sorted(specification.triggers):
            node = graph.label_id(label)
            if node is None:
                continue
            colors[node] = Color.GREEN
            distances[node] = 0.0
            stats.nodes_recolored += 1
            seeds.extend(graph.child_ids[node])
        return self._propagate(graph, specification, state, stats, seeds)

    def _propagate(
        self,
        graph: Supergraph,
        specification: Specification,
        state: ColoringState,
        stats: ConstructionStatistics,
        initial: Iterable[int],
    ) -> bool:
        """Worklist propagation of green from the ``initial`` node ids.

        Every child list is in name order, so nodes are enqueued in
        ``NodeRef`` order.  The final colouring does not depend on visit
        order, but the effort counters do (a node coloured at a
        provisional distance and improved later counts twice), and trial
        results must be byte-identical across interpreters
        (tests/integration/test_hash_seed_determinism.py).
        """

        colors = state.color_ids
        # Goals not yet green; an unknown goal (None) is never reached.
        pending = {
            node
            for node in map(graph.label_id, specification.goals)
            if colors.get(node) is not Color.GREEN
        }
        stop_early = self.stop_exploration_early
        tasks, parents, children = graph.node_tasks, graph.parent_ids, graph.child_ids

        worklist = deque(dict.fromkeys(initial))
        queued = set(worklist)
        if stop_early and not pending:
            return True

        while worklist:
            node = worklist.popleft()
            queued.discard(node)
            stats.exploration_iterations += 1
            if not self._try_color_green(node, tasks[node], parents[node], state):
                continue
            stats.nodes_recolored += 1
            if node in pending:
                pending.discard(node)
                if stop_early and not pending:
                    return True
            for child in children[node]:
                if child not in queued:
                    queued.add(child)
                    worklist.append(child)

        return not pending

    def _try_color_green(
        self, node: int, task: Task | None, parents: list[int], state: ColoringState
    ) -> bool:
        """Apply the exploration-phase guard/update for a single node.

        ``task`` is the node's task (``None`` for a label) and ``parents``
        its parent ids.  Returns ``True`` when the node's colour or
        distance changed.
        """

        task_filter = self._task_filter
        if task is not None and task_filter is not None and not task_filter(task):
            return False
        # A parentless node can never be coloured by propagation (triggers
        # are seeded directly).
        if not parents:
            return False
        colors, distances = state.color_ids, state.distance_ids
        green = Color.GREEN
        if task is None or task.is_disjunctive:
            d = min(
                (distances[p] for p in parents if colors.get(p) is green),
                default=None,
            )
            if d is None:
                return False
        else:
            for p in parents:
                if colors.get(p) is not green:
                    return False
            d = max(distances[p] for p in parents)

        current = colors.get(node)
        new_distance = d + 1
        if current is None or (current is green and distances[node] > new_distance):
            colors[node] = green
            distances[node] = new_distance
            return True
        return False

    # -- pruning phase ---------------------------------------------------------
    def _prune(
        self,
        graph: Supergraph,
        specification: Specification,
        state: ColoringState,
        stats: ConstructionStatistics,
    ) -> list[int]:
        """Walk back from the goals; return the ids turned blue, in order."""

        colors = state.color_ids
        purple: deque[int] = deque()
        for label in sorted(specification.goals):
            node = graph.label_id(label)
            if node is None or colors.get(node) is not Color.GREEN:
                raise ConstructionError(
                    f"goal label {label!r} was not green at the start of pruning"
                )
            colors[node] = Color.PURPLE
            purple.append(node)

        blue: list[int] = []
        while purple:
            node = purple.popleft()
            stats.pruning_iterations += 1
            for parent in self._required_parents(graph, node, state):
                state.blue_edge_ids.add((parent, node))
                if colors.get(parent) is Color.GREEN:
                    colors[parent] = Color.PURPLE
                    purple.append(parent)
            colors[node] = Color.BLUE
            blue.append(node)
        return blue

    def _required_parents(
        self, graph: Supergraph, node: int, state: ColoringState
    ) -> list[int]:
        distances = state.distance_ids
        if distances.get(node) == 0:
            return []
        parents = graph.parent_ids[node]
        task = graph.node_tasks[node]
        if task is None or task.is_disjunctive:
            colored = [p for p in parents if p in state.color_ids]
            if not colored:
                raise ConstructionError(
                    f"disjunctive node {graph.node_ref(node)!r} has no coloured "
                    "parent during pruning"
                )
            # Parents are in name order and min keeps the first of equals,
            # so a distance tie goes to the smallest name (NodeRef order).
            return [min(colored, key=distances.__getitem__)]
        return parents

    def _blue_workflow(
        self,
        graph: Supergraph,
        specification: Specification,
        state: ColoringState,
        blue: list[int],
    ) -> Workflow:
        names, node_tasks = graph.node_names, graph.node_tasks

        # Index the blue edges once (O(edges)) instead of scanning the whole
        # edge set per task (O(tasks * edges)) — this is the dominant cost of
        # extracting large workflows.
        inputs_by_task: dict[int, set[str]] = {}
        outputs_by_task: dict[int, set[str]] = {}
        for parent, child in state.blue_edge_ids:
            if node_tasks[child] is not None:
                inputs_by_task.setdefault(child, set()).add(names[parent])
            else:
                outputs_by_task.setdefault(parent, set()).add(names[child])

        tasks: list[Task] = []
        blue_labels: set[str] = set()
        for node in sorted(blue, key=names.__getitem__):
            original = node_tasks[node]
            if original is None:
                blue_labels.add(names[node])
                continue
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
) -> ConstructionResult:
    """Convenience wrapper: build the supergraph from ``knowledge`` and run Algorithm 1."""

    if not isinstance(knowledge, KnowledgeSet):
        knowledge = KnowledgeSet(knowledge)
    supergraph = Supergraph(knowledge)
    return WorkflowConstructor().construct(supergraph, specification)


def is_feasible(
    knowledge: KnowledgeSet | Iterable[WorkflowFragment],
    specification: Specification,
) -> bool:
    """True when some workflow composed from ``knowledge`` satisfies ``specification``."""

    return construct_workflow(knowledge, specification).succeeded


def describe_coloring(state: ColoringState) -> Mapping[str, int]:
    """Summarise a colouring state (used by traces and tests)."""

    summary = {color.value: 0 for color in Color}
    for color in state.color_ids.values():
        summary[color.value] += 1
    summary["blue_edges"] = len(state.blue_edge_ids)
    return summary
