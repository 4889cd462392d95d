"""Algorithm 1 over ``NodeRef``-keyed graphs: the oracle of the id kernel.

:class:`~repro.core.construction.WorkflowConstructor` colours the
supergraph over dense integer node ids.  This module keeps the formulation
it replaced: every node is a :class:`~repro.core.graph.NodeRef`, adjacency
is rebuilt from the supergraph's task table alone (so a fault in the
integer node table cannot hide here), and each visit sorts a node's
children by ``NodeRef``.  The colouring, the distances, the blue edges, the
workflow and the effort counters (``nodes_recolored``,
``exploration_iterations``, ``pruning_iterations``) of the two must be
equal (``tests/property/test_coloring_oracle.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.construction import INFINITE_DISTANCE, Color
from repro.core.errors import ConstructionError
from repro.core.graph import NodeRef
from repro.core.specification import Specification
from repro.core.supergraph import Supergraph
from repro.core.tasks import Task
from repro.core.workflow import Workflow

TaskFilter = Callable[[Task], bool]


@dataclass
class ReferenceState:
    """Colours, distances and blue edges keyed by ``NodeRef``."""

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


@dataclass
class Effort:
    """The per-run counters the kernel reports in ``ConstructionStatistics``."""

    nodes_recolored: int = 0
    exploration_iterations: int = 0
    pruning_iterations: int = 0


class ReferenceGraph:
    """``NodeRef`` adjacency of a supergraph, rebuilt from its task table."""

    def __init__(self, supergraph: Supergraph) -> None:
        self.tasks: dict[str, Task] = dict(supergraph.tasks)
        self.labels: frozenset[str] = supergraph.labels
        self._producers: dict[str, set[str]] = {label: set() for label in self.labels}
        self._consumers: dict[str, set[str]] = {label: set() for label in self.labels}
        for task in self.tasks.values():
            for out in task.outputs:
                self._producers[out].add(task.name)
            for inp in task.inputs:
                self._consumers[inp].add(task.name)

    def parents(self, node: NodeRef) -> frozenset[NodeRef]:
        if node.is_task:
            return frozenset(NodeRef.label(i) for i in self.tasks[node.name].inputs)
        return frozenset(NodeRef.task(t) for t in self._producers[node.name])

    def children(self, node: NodeRef) -> frozenset[NodeRef]:
        if node.is_task:
            return frozenset(NodeRef.label(o) for o in self.tasks[node.name].outputs)
        return frozenset(NodeRef.task(t) for t in self._consumers[node.name])

    def is_disjunctive(self, node: NodeRef) -> bool:
        return node.is_label or self.tasks[node.name].is_disjunctive


# -- exploration ----------------------------------------------------------------
def explore(
    graph: ReferenceGraph,
    specification: Specification,
    state: ReferenceState,
    effort: Effort,
    task_filter: TaskFilter | None = None,
    stop_early: bool = True,
) -> bool:
    """Colour green from scratch, starting at the triggers."""

    seeds = _seed_triggers(graph, specification, state, effort)
    return _propagate(
        graph, specification, state, effort, seeds, task_filter, stop_early
    )


def _seed_triggers(
    graph: ReferenceGraph,
    specification: Specification,
    state: ReferenceState,
    effort: Effort,
) -> list[NodeRef]:
    seeds: list[NodeRef] = []
    for label in sorted(specification.triggers):
        node = NodeRef.label(label)
        if label not in graph.labels:
            continue
        state.set(node, Color.GREEN, 0.0)
        effort.nodes_recolored += 1
        seeds.extend(sorted(graph.children(node)))
    return seeds


def _propagate(
    graph: ReferenceGraph,
    specification: Specification,
    state: ReferenceState,
    effort: Effort,
    initial: Iterable[NodeRef],
    task_filter: TaskFilter | None,
    stop_early: bool,
) -> bool:
    goal_nodes = {NodeRef.label(g) for g in specification.goals}
    green_goals = {n for n in goal_nodes if state.color_of(n) is Color.GREEN}

    worklist: deque[NodeRef] = deque()
    queued: set[NodeRef] = set()

    def enqueue(node: NodeRef) -> None:
        if node not in queued:
            queued.add(node)
            worklist.append(node)

    for node in initial:
        enqueue(node)

    if stop_early and green_goals >= goal_nodes:
        return True

    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        effort.exploration_iterations += 1
        if not _try_color_green(graph, node, state, task_filter):
            continue
        effort.nodes_recolored += 1
        if node in goal_nodes:
            green_goals.add(node)
            if stop_early and green_goals >= goal_nodes:
                return True
        for child in sorted(graph.children(node)):
            enqueue(child)

    return green_goals >= goal_nodes


def _try_color_green(
    graph: ReferenceGraph,
    node: NodeRef,
    state: ReferenceState,
    task_filter: TaskFilter | None,
) -> bool:
    if node.is_task and task_filter is not None:
        if not task_filter(graph.tasks[node.name]):
            return False
    parents = graph.parents(node)
    if not parents:
        return False
    green_parents = [p for p in parents if state.color_of(p) is Color.GREEN]
    if graph.is_disjunctive(node):
        if not green_parents:
            return False
        d = min(state.distance_of(p) for p in green_parents)
    else:
        if len(green_parents) != len(parents):
            return False
        d = max(state.distance_of(p) for p in green_parents)

    current = state.color_of(node)
    new_distance = d + 1
    if current is Color.UNCOLORED or (
        current is Color.GREEN and state.distance_of(node) > new_distance
    ):
        state.set(node, Color.GREEN, new_distance)
        return True
    return False


# -- pruning ----------------------------------------------------------------------
def prune(
    graph: ReferenceGraph,
    specification: Specification,
    state: ReferenceState,
    effort: Effort,
) -> Workflow:
    """Walk back from the goals; the blue nodes and edges form the workflow."""

    purple: list[NodeRef] = []
    for label in sorted(specification.goals):
        node = NodeRef.label(label)
        if state.color_of(node) is not Color.GREEN:
            raise ConstructionError(f"goal label {label!r} is not green")
        state.set(node, Color.PURPLE)
        purple.append(node)

    while purple:
        node = purple.pop(0)
        effort.pruning_iterations += 1
        for parent in _required_parents(graph, node, state):
            state.blue_edges.add((parent, node))
            if state.color_of(parent) is Color.GREEN:
                state.set(parent, Color.PURPLE)
                purple.append(parent)
        state.set(node, Color.BLUE)

    return _blue_workflow(graph, specification, state)


def _required_parents(
    graph: ReferenceGraph, node: NodeRef, state: ReferenceState
) -> list[NodeRef]:
    if state.distance_of(node) == 0:
        return []
    parents = graph.parents(node)
    if graph.is_disjunctive(node):
        colored = [
            p
            for p in parents
            if state.color_of(p) in (Color.GREEN, Color.PURPLE, Color.BLUE)
        ]
        if not colored:
            raise ConstructionError(f"disjunctive node {node!r} has no coloured parent")
        return [min(colored, key=lambda p: (state.distance_of(p), p))]
    return sorted(parents)


def _blue_workflow(
    graph: ReferenceGraph, specification: Specification, state: ReferenceState
) -> Workflow:
    blue_nodes = {node for node, color in state.colors.items() if color is Color.BLUE}
    inputs_by_task: dict[NodeRef, set[str]] = {}
    outputs_by_task: dict[NodeRef, set[str]] = {}
    for parent, child in state.blue_edges:
        if parent.is_label and child.is_task:
            inputs_by_task.setdefault(child, set()).add(parent.name)
        elif parent.is_task and child.is_label:
            outputs_by_task.setdefault(parent, set()).add(child.name)

    tasks: list[Task] = []
    for node in sorted(n for n in blue_nodes if n.is_task):
        original = graph.tasks[node.name]
        kept_inputs = inputs_by_task.get(node, set())
        kept_outputs = outputs_by_task.get(node, set())
        inputs = original.inputs if original.is_conjunctive else frozenset(kept_inputs)
        outputs = frozenset(kept_outputs) or original.outputs
        tasks.append(original.with_inputs(inputs).with_outputs(outputs))
    blue_labels = {n.name for n in blue_nodes if n.is_label}
    return Workflow(tasks, extra_labels=blue_labels & specification.goals)
