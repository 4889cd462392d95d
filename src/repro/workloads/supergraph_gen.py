"""Random supergraph workloads — the paper's evaluation methodology.

Section 5 of the paper describes the experimental setup:

    "we first construct a workflow supergraph of the chosen size by creating
    the desired number of nodes and then repeatedly adding edges between
    disconnected nodes until the graph is strongly connected.  From this
    single supergraph we can then draw a large number of
    guaranteed-satisfiable specifications by randomly picking any triggering
    conditions and goal.  We use only disjunctive task nodes in order to
    maintain the guarantee of satisfiability ...  Given a supergraph and a
    chosen number of hosts, we finish setting up the scenario by
    distributing the tasks randomly and evenly amongst the hosts, and
    independently distributing corresponding services randomly and evenly
    amongst the hosts. ... For each test run, the test driver randomly
    choses a path of the desired length through the supergraph, and the
    initial and final label nodes of the path are used as the specification
    for that test run."

:class:`RandomSupergraphWorkload` reproduces that generator.  Every task
``task-i`` produces its own label ``label-i``; input edges are added between
randomly chosen disconnected task pairs until the task-level digraph is
strongly connected.  Specifications are drawn by picking a start label and a
goal label whose shortest task-distance equals the requested path length, so
the "path length" knob controls the amount of exploration work exactly as in
the paper (longer paths require colouring a larger region of the
supergraph).  The maximum achievable path length shrinks with the graph
size, which reproduces the cut-off visible in Figures 5 and 6 for the small
25-task supergraph.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from dataclasses import dataclass, field

from ..core.fragments import KnowledgeSet, WorkflowFragment
from ..core.specification import Specification
from ..core.tasks import Task, TaskMode
from ..execution.services import ServiceDescription
from ..sim.randomness import derive_rng


def task_name(index: int) -> str:
    return f"task-{index}"


def label_name(index: int) -> str:
    return f"label-{index}"


@dataclass
class GeneratedWorkload:
    """A generated supergraph together with its derived knowledge and services.

    ``producers[i]`` is the index of the task producing ``label-i`` (always
    ``i`` in this generator); ``consumers[i]`` lists the task indexes that
    take ``label-i`` as an input.  The task-level adjacency
    (``task_successors``) is what specification sampling walks over.
    """

    num_tasks: int
    seed: int
    tasks: list[Task] = field(default_factory=list)
    fragments: list[WorkflowFragment] = field(default_factory=list)
    services: list[ServiceDescription] = field(default_factory=list)
    task_successors: dict[int, set[int]] = field(default_factory=dict)
    edge_count: int = 0

    @property
    def knowledge(self) -> KnowledgeSet:
        return KnowledgeSet(self.fragments)

    # -- host partitioning --------------------------------------------------
    def partition_fragments(self, num_hosts: int, rng: random.Random) -> list[list[WorkflowFragment]]:
        """Distribute the fragments randomly and evenly across ``num_hosts``."""

        return _partition_evenly(self.fragments, num_hosts, rng)

    def partition_services(self, num_hosts: int, rng: random.Random) -> list[list[ServiceDescription]]:
        """Distribute the services randomly and evenly (independently of fragments)."""

        return _partition_evenly(self.services, num_hosts, rng)

    # -- timing variants ----------------------------------------------------
    def with_task_durations(self, duration: float) -> "GeneratedWorkload":
        """This workload with every task taking ``duration`` simulated seconds.

        The generator's tasks are instantaneous, which makes whole trials
        collapse to simulated time zero on a zero-latency network — fine for
        allocation measurements, useless for studying crashes that land
        *mid-execution*.  The churn/durability suites use this variant so a
        workflow's execution actually spans the fault schedule's crash
        window.  Fragment ids are preserved (suffixed), so partitioning and
        discovery behave exactly like the instantaneous original.
        """

        if duration < 0:
            raise ValueError("task duration must be non-negative")
        timed = GeneratedWorkload(num_tasks=self.num_tasks, seed=self.seed)
        by_name: dict[str, Task] = {}
        for task in self.tasks:
            slow = dataclasses.replace(task, duration=duration)
            timed.tasks.append(slow)
            by_name[slow.name] = slow
        for fragment in self.fragments:
            timed.fragments.append(
                WorkflowFragment(
                    [by_name[task.name] for task in fragment.tasks],
                    fragment_id=f"{fragment.fragment_id}-d{duration:g}",
                )
            )
        timed.services = list(self.services)
        timed.task_successors = {
            node: set(successors) for node, successors in self.task_successors.items()
        }
        timed.edge_count = self.edge_count
        return timed

    # -- specification sampling -----------------------------------------------
    def max_path_length(self) -> int:
        """The largest shortest-path distance (in tasks) achievable in the graph."""

        best = 0
        for start in range(self.num_tasks):
            distances = self._task_distances(start)
            if distances:
                best = max(best, max(distances.values()))
        return best

    def path_specification(
        self, path_length: int, rng: random.Random, max_attempts: int = 200
    ) -> Specification | None:
        """Draw a guaranteed-satisfiable specification of the given difficulty.

        The returned specification's trigger is the output label of a random
        start task and its goal is the output label of a task whose shortest
        distance from the start is exactly ``path_length`` tasks.  Returns
        ``None`` when the supergraph has no pair of nodes that far apart
        (the "max path length" cut-off of the paper's figures).
        """

        if path_length < 1:
            raise ValueError("path_length must be at least 1")
        for _ in range(max_attempts):
            start = rng.randrange(self.num_tasks)
            distances = self._task_distances(start)
            # Exclude the start task itself: a cycle back to the start would
            # make the trigger and the goal the same label, which is a
            # degenerate (trivially satisfied) specification.
            candidates = [
                t for t, d in distances.items() if d == path_length and t != start
            ]
            if candidates:
                goal_task = candidates[rng.randrange(len(candidates))]
                return Specification(
                    triggers=[label_name(start)],
                    goals=[label_name(goal_task)],
                    name=f"path-{path_length}-from-{start}",
                )
        return None

    def _task_distances(self, start_task: int) -> dict[int, int]:
        """Shortest distance (number of downstream tasks) from ``start_task``.

        Distance 1 means "a task directly consuming the start task's label";
        this matches the interpretation of path length used when sampling
        specifications.
        """

        distances: dict[int, int] = {}
        queue: deque[tuple[int, int]] = deque(
            (successor, 1) for successor in sorted(self.task_successors[start_task])
        )
        while queue:
            node, distance = queue.popleft()
            if node in distances:
                continue
            distances[node] = distance
            for successor in sorted(self.task_successors[node]):
                if successor not in distances:
                    queue.append((successor, distance + 1))
        return distances


class RandomSupergraphWorkload:
    """Factory for the random strongly connected supergraphs of Section 5."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def generate(self, num_tasks: int) -> GeneratedWorkload:
        """Generate a workload with ``num_tasks`` disjunctive task nodes."""

        if num_tasks < 2:
            raise ValueError("a supergraph needs at least two task nodes")
        rng = derive_rng(self.seed, "supergraph", num_tasks)
        successors: list[set[int]] = [set() for _ in range(num_tasks)]
        predecessors: list[set[int]] = [set() for _ in range(num_tasks)]

        # Repeatedly add edges between *disconnected* nodes (pairs with no
        # directed path between them yet) until the graph is strongly
        # connected, as described in the paper.  Adding only edges that join
        # previously disconnected pairs keeps the supergraph sparse, which is
        # what gives the large supergraphs of Figure 5 their long paths.
        # An edge i -> j means task j consumes the label produced by task i.
        # Every such edge is new, so the edge count is the number added.
        everyone = set(range(num_tasks))
        edge_count = 0
        while not (
            len(_reachable(successors, 0)) == num_tasks
            and len(_reachable(predecessors, 0)) == num_tasks
        ):
            source = rng.randrange(num_tasks)
            unreachable = sorted(everyone - _reachable(successors, source))
            if unreachable:
                origin, target = source, unreachable[rng.randrange(len(unreachable))]
            else:
                cannot_reach_source = sorted(everyone - _reachable(predecessors, source))
                origin = cannot_reach_source[rng.randrange(len(cannot_reach_source))]
                target = source
            successors[origin].add(target)
            predecessors[target].add(origin)
            edge_count += 1

        workload = GeneratedWorkload(num_tasks=num_tasks, seed=self.seed)
        workload.task_successors = dict(enumerate(successors))
        workload.edge_count = edge_count

        for index in range(num_tasks):
            inputs = [label_name(p) for p in sorted(predecessors[index])]
            task = Task(
                task_name(index),
                inputs=inputs,
                outputs=[label_name(index)],
                mode=TaskMode.DISJUNCTIVE,
                service_type=task_name(index),
            )
            workload.tasks.append(task)
            workload.fragments.append(
                WorkflowFragment([task], fragment_id=f"seed{self.seed}-n{num_tasks}-frag-{index}")
            )
            workload.services.append(ServiceDescription(task_name(index)))
        return workload


def _reachable(adjacency: list[set[int]], start: int) -> set[int]:
    """``start`` and every node reachable from it along ``adjacency``."""

    seen = {start}
    stack = [start]
    while stack:
        for node in adjacency[stack.pop()]:
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def _partition_evenly(items: list, num_buckets: int, rng: random.Random) -> list[list]:
    """Shuffle ``items`` and deal them round-robin into ``num_buckets`` groups."""

    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    shuffled = list(items)
    rng.shuffle(shuffled)
    buckets: list[list] = [[] for _ in range(num_buckets)]
    for index, item in enumerate(shuffled):
        buckets[index % num_buckets].append(item)
    return buckets
