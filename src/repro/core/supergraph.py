"""The workflow supergraph: a unified view of all available know-how.

The construction strategy of the paper (Section 3.1) combines all workflow
fragments of the knowledge set ``K`` into one large graph, the *workflow
supergraph* ``G``.  The supergraph represents every possible action known to
the community, but it is not necessarily a valid workflow: it may contain
cycles, labels produced by multiple tasks, unavailable inputs, or undesired
outputs.  The coloring algorithm of :mod:`repro.core.construction` then
identifies one feasible workflow inside the supergraph.

Unlike :class:`~repro.core.workflow.Workflow`, the supergraph is *mutable*:
fragments can be added one at a time, which is what the incremental
construction variant relies on (fragments are pulled from remote hosts only
when the colored frontier reaches labels the local graph cannot yet
explain).

The adjacency is one integer node table.  Each node gets a dense id as it
is merged, and the table holds, per id, the node's name, its task (``None``
for a label), and its parent and child id lists.  Each list is kept in name
order as it is built, which is the ``NodeRef`` order the colouring breaks
ties by, so graph navigation during colouring never sorts, hashes a
``NodeRef`` or scans the task table.  The string and ``NodeRef`` queries
(:meth:`producers_of`, :meth:`consumers_of`, :meth:`parents`,
:meth:`children`, :meth:`in_degree`, ...) are views over the same table.

To make repeated construction over a growing graph cheap, the supergraph is
*versioned*: every mutation that actually changes the graph bumps a
monotonically increasing :attr:`version` and records the ids of the
affected nodes in a journal.  A solver that cached a coloring at version
``v`` can ask :meth:`dirty_ids_since` for the nodes touched after ``v`` and
recolor only that dirty region instead of the whole graph (see
:mod:`repro.core.solver`).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator, Mapping

from .errors import InvalidWorkflowError
from .fragments import KnowledgeSet, WorkflowFragment
from .graph import Edge, NodeRef
from .tasks import Task

_graph_counter = itertools.count(1)

#: Journal entries older than this are compacted (merged pairwise) to bound
#: memory on long-lived graphs.  Compaction over-approximates the dirty set
#: for very old versions, which is safe: recoloring extra nodes is wasted
#: work, never wrong answers.
_JOURNAL_COMPACTION_THRESHOLD = 4096


class Supergraph:
    """A mutable, versioned union of workflow fragments.

    The supergraph keeps track of which fragments contributed each task so
    that, after construction, the selected sub-workflow can be attributed
    back to the know-how (and therefore the participants) it came from.

    The integer node table (:attr:`node_names`, :attr:`node_tasks`,
    :attr:`parent_ids`, :attr:`child_ids`) is exposed for the colouring
    kernel; callers must treat those lists as read-only.
    """

    def __init__(self, fragments: Iterable[WorkflowFragment] = ()) -> None:
        self._graph_id = f"supergraph-{next(_graph_counter)}"
        self._version = 0
        self._journal: list[tuple[int, frozenset[int]]] = []
        self._label_ids: dict[str, int] = {}
        self._task_ids: dict[str, int] = {}
        self._names: list[str] = []
        self._tasks: list[Task | None] = []
        self._parents: list[list[int]] = []
        self._children: list[list[int]] = []
        self._edge_count = 0
        self._task_fragments: dict[str, set[str]] = {}
        self._fragment_ids: set[str] = set()
        for fragment in fragments:
            self.add_fragment(fragment)

    # -- versioning --------------------------------------------------------
    @property
    def graph_id(self) -> str:
        """Process-unique identity of this graph (used in solver cache keys)."""

        return self._graph_id

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter."""

        return self._version

    def _record_mutation(self, nodes: Iterable[int]) -> None:
        affected = frozenset(nodes)
        if not affected:
            return
        self._version += 1
        self._journal.append((self._version, affected))
        if len(self._journal) > _JOURNAL_COMPACTION_THRESHOLD:
            self._compact_journal()

    def _compact_journal(self) -> None:
        """Merge the oldest half of the journal pairwise.

        A merged entry keeps the *newest* version of the pair while unioning
        the node sets, so ``dirty_since`` can only over-report for versions
        that fall inside a merged range.
        """

        half = len(self._journal) // 2
        old, recent = self._journal[:half], self._journal[half:]
        merged: list[tuple[int, frozenset[int]]] = []
        for i in range(0, len(old), 2):
            pair = old[i : i + 2]
            merged.append((pair[-1][0], frozenset().union(*(s for _, s in pair))))
        self._journal = merged + recent

    def dirty_ids_since(self, version: int) -> frozenset[int]:
        """Ids of the nodes added or whose parents changed after ``version``.

        ``dirty_ids_since(self.version)`` is always empty.  For versions
        that predate journal compaction the result may be a superset of the
        true dirty region (never a subset), which keeps incremental
        recoloring conservative but correct.
        """

        if version >= self._version:
            return frozenset()
        dirty: set[int] = set()
        for entry_version, nodes in reversed(self._journal):
            if entry_version <= version:
                break
            dirty |= nodes
        return frozenset(dirty)

    def dirty_since(self, version: int) -> frozenset[NodeRef]:
        """:meth:`dirty_ids_since` as node references."""

        return frozenset(self.node_ref(node) for node in self.dirty_ids_since(version))

    # -- mutation ----------------------------------------------------------
    def add_fragment(self, fragment: WorkflowFragment) -> bool:
        """Merge a fragment into the supergraph.

        Returns ``True`` when the fragment added at least one new node or
        edge, ``False`` when it was already fully represented (including
        when the same fragment id was added before).
        """

        if fragment.fragment_id in self._fragment_ids:
            return False
        affected: set[int] = set()
        try:
            for task in fragment.tasks:
                self._add_task(task, fragment.fragment_id, affected)
        finally:
            # Journal even when a later task of the fragment conflicts and
            # raises: the earlier tasks are already merged, and dirty_since
            # must never under-report.  The fragment id is only registered
            # on success so a corrected resubmission is not ignored.
            self._record_mutation(affected)
        self._fragment_ids.add(fragment.fragment_id)
        return bool(affected)

    def add_fragments_batch(self, fragments: Iterable[WorkflowFragment]) -> int:
        """Merge a batch of fragments under a *single* journal entry.

        Ingesting a discovery response fragment-by-fragment would bump
        :attr:`version` once per fragment and leave one journal entry each;
        a solver re-solving after the response would still recolor the same
        dirty region, but the journal would grow (and compact) needlessly.
        The batch merge unions every affected node into one journal entry
        and bumps the version once, so one discovery round costs one dirty
        frontier regardless of how many fragments it delivered.

        Returns how many fragments added at least one new node or edge.
        Like :meth:`add_fragment`, a conflicting task definition raises
        *after* journaling the nodes merged so far.
        """

        affected: set[int] = set()
        changed = 0
        try:
            for fragment in fragments:
                if fragment.fragment_id in self._fragment_ids:
                    continue
                before = len(affected)
                for task in fragment.tasks:
                    self._add_task(task, fragment.fragment_id, affected)
                self._fragment_ids.add(fragment.fragment_id)
                if len(affected) > before:
                    changed += 1
        finally:
            self._record_mutation(affected)
        return changed

    def add_knowledge(self, knowledge: KnowledgeSet | Iterable[WorkflowFragment]) -> int:
        """Merge every fragment of ``knowledge``; returns how many changed the graph."""

        return self.add_fragments_batch(knowledge)

    def add_label(self, label: str) -> None:
        """Ensure a free-standing label node exists (used for trigger labels)."""

        affected: set[int] = set()
        self._label_node(label, affected)
        self._record_mutation(affected)

    def _new_node(
        self, name: str, task: Task | None, parents: list[int], children: list[int]
    ) -> int:
        node = len(self._names)
        self._names.append(name)
        self._tasks.append(task)
        self._parents.append(parents)
        self._children.append(children)
        return node

    def _label_node(self, label: str, affected: set[int]) -> int:
        node = self._label_ids.get(label)
        if node is None:
            node = self._label_ids[label] = self._new_node(label, None, [], [])
            affected.add(node)
        return node

    def _add_task(self, task: Task, fragment_id: str, affected: set[int]) -> None:
        existing = self._task_ids.get(task.name)
        if existing is not None:
            if self._tasks[existing] != task:
                raise InvalidWorkflowError(
                    f"conflicting definitions for task {task.name!r} while merging "
                    f"fragment {fragment_id!r}"
                )
            self._task_fragments[task.name].add(fragment_id)
            return
        inputs = [self._label_node(label, affected) for label in sorted(task.inputs)]
        outputs = [self._label_node(label, affected) for label in sorted(task.outputs)]
        node = self._new_node(task.name, task, inputs, outputs)
        self._task_ids[task.name] = node
        self._task_fragments[task.name] = {fragment_id}
        affected.add(node)
        by_name = self._names.__getitem__
        for label in inputs:
            bisect.insort(self._children[label], node, key=by_name)
        for label in outputs:
            bisect.insort(self._parents[label], node, key=by_name)
            # The label gained a producer: its parent list changed.
            affected.add(label)
        self._edge_count += len(inputs) + len(outputs)

    # -- integer node table ---------------------------------------------------
    @property
    def node_names(self) -> list[str]:
        """Node id -> label or task name."""

        return self._names

    @property
    def node_tasks(self) -> list[Task | None]:
        """Node id -> task (``None`` for a label node)."""

        return self._tasks

    @property
    def parent_ids(self) -> list[list[int]]:
        """Node id -> parent ids in name order (inputs, or producers)."""

        return self._parents

    @property
    def child_ids(self) -> list[list[int]]:
        """Node id -> child ids in name order (outputs, or consumers)."""

        return self._children

    def label_id(self, label: str) -> int | None:
        """The id of the label node called ``label``, if it exists."""

        return self._label_ids.get(label)

    def node_id(self, node: NodeRef) -> int | None:
        """The id of ``node``, if it exists."""

        ids = self._task_ids if node.is_task else self._label_ids
        return ids.get(node.name)

    def node_ref(self, node: int) -> NodeRef:
        """The reference of the node with id ``node``."""

        name = self._names[node]
        return NodeRef.label(name) if self._tasks[node] is None else NodeRef.task(name)

    # -- accessors ------------------------------------------------------------
    @property
    def tasks(self) -> Mapping[str, Task]:
        tasks = self._tasks
        return {name: tasks[node] for name, node in self._task_ids.items()}

    @property
    def task_names(self) -> frozenset[str]:
        return frozenset(self._task_ids)

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self._label_ids)

    @property
    def fragment_ids(self) -> frozenset[str]:
        return frozenset(self._fragment_ids)

    @property
    def fragment_count(self) -> int:
        """Number of merged fragments, without materializing the id set."""

        return len(self._fragment_ids)

    @property
    def task_count(self) -> int:
        return len(self._task_ids)

    @property
    def label_count(self) -> int:
        return len(self._label_ids)

    def task(self, name: str) -> Task:
        return self._tasks[self._task_ids[name]]  # type: ignore[return-value]

    def has_task(self, name: str) -> bool:
        return name in self._task_ids

    def has_label(self, name: str) -> bool:
        return name in self._label_ids

    def fragments_for_task(self, task_name: str) -> frozenset[str]:
        """The ids of the fragments that contributed ``task_name``."""

        return frozenset(self._task_fragments.get(task_name, ()))

    def __len__(self) -> int:
        return len(self._names)

    @property
    def node_count(self) -> int:
        return len(self)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    # -- graph navigation --------------------------------------------------------
    def nodes(self) -> Iterator[NodeRef]:
        for name in sorted(self._label_ids):
            yield NodeRef.label(name)
        for name in sorted(self._task_ids):
            yield NodeRef.task(name)

    def edges(self) -> Iterator[Edge]:
        for name in sorted(self._task_ids):
            task = self.task(name)
            for inp in sorted(task.inputs):
                yield Edge(NodeRef.label(inp), NodeRef.task(name))
            for out in sorted(task.outputs):
                yield Edge(NodeRef.task(name), NodeRef.label(out))

    def _adjacent(self, node: NodeRef, adjacency: list[list[int]]) -> list[int]:
        """``node``'s id list in ``adjacency``; empty for an unknown label."""

        if node.is_task:
            return adjacency[self._task_ids[node.name]]
        label = self._label_ids.get(node.name)
        return [] if label is None else adjacency[label]

    def producers_of(self, label: str) -> frozenset[str]:
        producers = self._adjacent(NodeRef.label(label), self._parents)
        return frozenset(self._names[task] for task in producers)

    def consumers_of(self, label: str) -> frozenset[str]:
        consumers = self._adjacent(NodeRef.label(label), self._children)
        return frozenset(self._names[task] for task in consumers)

    # -- degree indexes ----------------------------------------------------
    def in_degree(self, node: NodeRef) -> int:
        """Number of parents: producers for a label, inputs for a task."""

        return len(self._adjacent(node, self._parents))

    def out_degree(self, node: NodeRef) -> int:
        """Number of children: consumers for a label, outputs for a task."""

        return len(self._adjacent(node, self._children))

    def parents(self, node: NodeRef) -> frozenset[NodeRef]:
        return frozenset(map(self.node_ref, self._adjacent(node, self._parents)))

    def children(self, node: NodeRef) -> frozenset[NodeRef]:
        return frozenset(map(self.node_ref, self._adjacent(node, self._children)))

    def is_disjunctive_node(self, node: NodeRef) -> bool:
        """Label nodes are disjunctive; task nodes follow their declared mode."""

        if node.is_label:
            return True
        return self.task(node.name).is_disjunctive

    # -- statistics used by the evaluation harness ---------------------------------
    def statistics(self) -> dict[str, int]:
        """Simple size statistics (used in experiment reports)."""

        return {
            "tasks": len(self._task_ids),
            "labels": len(self._label_ids),
            "edges": self._edge_count,
            "fragments": len(self._fragment_ids),
            "version": self._version,
            "multi_producer_labels": sum(
                1 for node in self._label_ids.values() if len(self._parents[node]) > 1
            ),
        }

    def __repr__(self) -> str:
        return (
            f"Supergraph(tasks={len(self._task_ids)}, labels={len(self._label_ids)}, "
            f"fragments={len(self._fragment_ids)})"
        )


def supergraph_from_knowledge(knowledge: KnowledgeSet) -> Supergraph:
    """Build a supergraph from an entire knowledge set at once."""

    return Supergraph(knowledge)
