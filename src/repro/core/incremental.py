"""Incremental supergraph construction.

The basic algorithm of :mod:`repro.core.construction` assumes that the
initiator first collects *all* fragments from the community and only then
starts colouring.  The paper extends the algorithm by relaxing that
assumption: because the colouring of nodes requires only local knowledge,
the supergraph can be built incrementally, drawing from the community only
the fragments needed to extend the graph along the boundaries of the
coloured region.

:class:`IncrementalConstructor` implements that variant against an abstract
:class:`FragmentSource`.  A fragment source may be a local knowledge set
(used in tests and ablations) or any other store that answers label-targeted
queries.  The constructor keeps statistics on how many queries were issued
and how many fragments were actually transferred, which the discovery
ablation compares against the collect-everything baseline that the
middleware's discovery protocol (:mod:`repro.discovery.knowhow`) runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol

from .construction import ConstructionResult
from .fragments import KnowledgeSet, WorkflowFragment
from .solver import Solver
from .specification import Specification
from .supergraph import Supergraph


def compute_frontier_labels(
    graph: Supergraph,
    specification: Specification,
    result: ConstructionResult,
) -> set[str]:
    """Labels along the boundary of the coloured region.

    The forward frontier consists of every green label (its consumers may be
    missing locally); the backward frontier consists of goal labels and of
    inputs of locally-known tasks that are not yet green (their producers may
    be missing locally).  :class:`IncrementalConstructor` queries its source
    about these labels in each round.
    """

    from .construction import Color  # local import to avoid cycle at module load

    frontier: set[str] = set(specification.goals)
    green_labels = {
        node.name
        for node, color in result.state.colors.items()
        if node.is_label and color in (Color.GREEN, Color.BLUE, Color.PURPLE)
    }
    frontier |= green_labels
    for task in graph.tasks.values():
        for inp in task.inputs:
            if inp not in green_labels:
                frontier.add(inp)
    return frontier


class FragmentSource(Protocol):
    """Where the incremental constructor pulls know-how from.

    Implementations answer two kinds of label-targeted queries: fragments
    containing a task that *consumes* a label (used to push the coloured
    frontier forward from the triggers) and fragments containing a task
    that *produces* a label (used to seed the search around the goals).  ``exclude`` carries the ids of fragments already
    held locally so they are not transferred twice.
    """

    def fragments_consuming(
        self, label: str, exclude: frozenset[str]
    ) -> list[WorkflowFragment]:
        """Fragments with a task taking ``label`` as an input."""
        ...

    def fragments_producing(
        self, label: str, exclude: frozenset[str]
    ) -> list[WorkflowFragment]:
        """Fragments with a task producing ``label``."""
        ...


class LocalFragmentSource:
    """A :class:`FragmentSource` backed by an in-memory knowledge set."""

    def __init__(self, knowledge: KnowledgeSet | Iterable[WorkflowFragment]) -> None:
        if not isinstance(knowledge, KnowledgeSet):
            knowledge = KnowledgeSet(knowledge)
        self._knowledge = knowledge
        self.query_count = 0
        self.fragments_served = 0

    def fragments_consuming(
        self, label: str, exclude: frozenset[str]
    ) -> list[WorkflowFragment]:
        self.query_count += 1
        found = [
            f
            for f in self._knowledge.fragments_consuming(label)
            if f.fragment_id not in exclude
        ]
        self.fragments_served += len(found)
        return found

    def fragments_producing(
        self, label: str, exclude: frozenset[str]
    ) -> list[WorkflowFragment]:
        self.query_count += 1
        found = [
            f
            for f in self._knowledge.fragments_producing(label)
            if f.fragment_id not in exclude
        ]
        self.fragments_served += len(found)
        return found


@dataclass
class IncrementalStatistics:
    """Bookkeeping for one incremental construction run."""

    rounds: int = 0
    queries_issued: int = 0
    fragments_transferred: int = 0
    labels_queried: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "rounds": self.rounds,
            "queries_issued": self.queries_issued,
            "fragments_transferred": self.fragments_transferred,
            "labels_queried": self.labels_queried,
        }


@dataclass
class IncrementalConstructionResult:
    """Result of an incremental construction run.

    Wraps the final :class:`~repro.core.construction.ConstructionResult`
    together with the incremental-specific statistics and the supergraph as
    it stood when construction finished (useful for reuse across multiple
    specifications by the workflow manager's workspaces).
    """

    construction: ConstructionResult
    supergraph: Supergraph
    incremental: IncrementalStatistics = field(default_factory=IncrementalStatistics)

    @property
    def succeeded(self) -> bool:
        return self.construction.succeeded

    @property
    def workflow(self):
        return self.construction.workflow

    def require_workflow(self):
        return self.construction.require_workflow()


class IncrementalConstructor:
    """Builds the supergraph lazily while colouring it.

    Parameters
    ----------
    source:
        Where fragments are pulled from.
    seed_with_goal_producers:
        When true (default) the constructor starts by asking for fragments
        that can produce each goal label, guaranteeing that a goal reachable
        in a single backwards step is found even when the forward frontier
        has not been expanded yet.
    max_rounds:
        Safety bound on the number of frontier-expansion rounds; the
        default is generous enough for any realistic community.

    Each round colours the whole accumulated graph from scratch with one
    :class:`~repro.core.solver.Solver`.
    """

    def __init__(
        self,
        source: FragmentSource,
        seed_with_goal_producers: bool = True,
        max_rounds: int = 10_000,
    ) -> None:
        self._source = source
        self._seed_with_goal_producers = seed_with_goal_producers
        self._max_rounds = max_rounds
        self._solver = Solver()

    def construct(
        self,
        specification: Specification,
        initial_fragments: Iterable[WorkflowFragment] = (),
        supergraph: Supergraph | None = None,
    ) -> IncrementalConstructionResult:
        """Run incremental construction for ``specification``.

        ``initial_fragments`` model the know-how already held by the
        initiating host; ``supergraph`` lets a caller reuse the graph
        accumulated by earlier problems, such as a workflow manager's
        knowledge plane.
        """

        graph = supergraph if supergraph is not None else Supergraph()
        for fragment in initial_fragments:
            graph.add_fragment(fragment)
        stats = IncrementalStatistics()
        queried_forward: set[str] = set()
        queried_backward: set[str] = set()

        if self._seed_with_goal_producers:
            for goal in sorted(specification.goals):
                self._pull_producing(graph, goal, queried_backward, stats)

        result = self._solver.solve(graph, specification)
        while not result.succeeded and stats.rounds < self._max_rounds:
            stats.rounds += 1
            frontier = self._frontier_labels(graph, specification, result)
            new_fragments = 0
            for label in sorted(frontier):
                if label not in queried_forward:
                    new_fragments += self._pull_consuming(
                        graph, label, queried_forward, stats
                    )
                if label not in queried_backward:
                    new_fragments += self._pull_producing(
                        graph, label, queried_backward, stats
                    )
            if new_fragments == 0:
                break
            result = self._solver.solve(graph, specification)

        return IncrementalConstructionResult(result, graph, stats)

    # -- frontier computation ------------------------------------------------
    def _frontier_labels(
        self,
        graph: Supergraph,
        specification: Specification,
        result: ConstructionResult,
    ) -> set[str]:
        return compute_frontier_labels(graph, specification, result)

    # -- query helpers -----------------------------------------------------------
    def _pull_consuming(
        self,
        graph: Supergraph,
        label: str,
        queried: set[str],
        stats: IncrementalStatistics,
    ) -> int:
        queried.add(label)
        stats.queries_issued += 1
        stats.labels_queried += 1
        fragments = self._source.fragments_consuming(label, graph.fragment_ids)
        added = 0
        for fragment in fragments:
            if graph.add_fragment(fragment):
                added += 1
                stats.fragments_transferred += 1
        return added

    def _pull_producing(
        self,
        graph: Supergraph,
        label: str,
        queried: set[str],
        stats: IncrementalStatistics,
    ) -> int:
        queried.add(label)
        stats.queries_issued += 1
        stats.labels_queried += 1
        fragments = self._source.fragments_producing(label, graph.fragment_ids)
        added = 0
        for fragment in fragments:
            if graph.add_fragment(fragment):
                added += 1
                stats.fragments_transferred += 1
        return added


def construct_incrementally(
    knowledge: KnowledgeSet | Iterable[WorkflowFragment],
    specification: Specification,
    initial_fragments: Iterable[WorkflowFragment] = (),
) -> IncrementalConstructionResult:
    """Run incremental construction against an in-memory knowledge set."""

    source = LocalFragmentSource(knowledge)
    constructor = IncrementalConstructor(source)
    return constructor.construct(specification, initial_fragments=initial_fragments)
