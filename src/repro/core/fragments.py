"""Workflow fragments: the know-how units held by individual participants.

A *workflow fragment* is merely a small workflow (possibly a single task)
that is intended to be composed into larger workflows at a later time
(paper, Section 2.2).  Fragments are the currency of the open workflow
paradigm: each participant carries a collection of fragments on its device
(the :class:`~repro.host.fragment_manager.FragmentManager`), and the
construction algorithm assembles a custom workflow out of the fragments
available in the current community.

Fragments carry a little provenance metadata (an identifier and the name of
the contributor) which the discovery protocol and the incremental
construction algorithm use to avoid transferring the same fragment twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import InvalidFragmentError, InvalidWorkflowError
from .tasks import Task
from .workflow import Workflow

_fragment_counter = itertools.count(1)


def _next_fragment_id() -> str:
    return f"fragment-{next(_fragment_counter)}"


@dataclass(frozen=True)
class WorkflowFragment:
    """A small, valid workflow contributed by a participant.

    Parameters
    ----------
    tasks:
        The tasks of the fragment.  The fragment must itself be a valid
        workflow (validated at construction).
    fragment_id:
        Unique identifier; autogenerated when omitted.
    contributor:
        The name of the host/participant whose know-how this fragment
        encodes (filled in by the fragment manager when it is registered).
    description:
        Optional human readable description of the know-how.
    """

    tasks: tuple[Task, ...]
    fragment_id: str = field(default_factory=_next_fragment_id)
    contributor: str | None = None
    description: str = ""

    def __init__(
        self,
        tasks: Iterable[Task],
        fragment_id: str | None = None,
        contributor: str | None = None,
        description: str = "",
    ) -> None:
        task_tuple = tuple(tasks)
        if not task_tuple:
            raise InvalidFragmentError("a fragment must contain at least one task")
        object.__setattr__(self, "tasks", task_tuple)
        object.__setattr__(
            self, "fragment_id", fragment_id or _next_fragment_id()
        )
        object.__setattr__(self, "contributor", contributor)
        object.__setattr__(self, "description", description)
        try:
            workflow = Workflow(task_tuple)
        except InvalidWorkflowError as exc:
            raise InvalidFragmentError(f"fragment is not a valid workflow: {exc}") from exc
        object.__setattr__(self, "_workflow", workflow)

    # -- views -----------------------------------------------------------
    def as_workflow(self) -> Workflow:
        """The fragment viewed as a (small) valid workflow."""

        return self._workflow  # type: ignore[attr-defined]

    @property
    def task_names(self) -> frozenset[str]:
        return frozenset(task.name for task in self.tasks)

    @property
    def labels(self) -> frozenset[str]:
        return self.as_workflow().labels

    @property
    def inset(self) -> frozenset[str]:
        """Source labels of the fragment (what it needs)."""

        return self.as_workflow().inset

    @property
    def outset(self) -> frozenset[str]:
        """Sink labels of the fragment (what it can provide)."""

        return self.as_workflow().outset

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def with_contributor(self, contributor: str) -> "WorkflowFragment":
        """Return a copy of the fragment attributed to ``contributor``.

        The copy keeps the id, description and tasks, and shares this
        fragment's validated workflow: validation happens once, where a
        fragment is first made, and attribution changes no task.
        """

        attributed = object.__new__(WorkflowFragment)
        attributed.__dict__.update(self.__dict__, contributor=contributor)
        return attributed

    def mentions_label(self, label: str) -> bool:
        """True when the fragment produces or consumes ``label``."""

        return label in self.labels

    def produces_label(self, label: str) -> bool:
        """True when some task of the fragment outputs ``label``."""

        return any(label in task.outputs for task in self.tasks)

    def consumes_label(self, label: str) -> bool:
        """True when some task of the fragment takes ``label`` as input."""

        return any(label in task.inputs for task in self.tasks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkflowFragment):
            return NotImplemented
        return set(self.tasks) == set(other.tasks)

    def __hash__(self) -> int:
        return hash(frozenset(self.tasks))

    def __repr__(self) -> str:
        return (
            f"WorkflowFragment(id={self.fragment_id!r}, "
            f"tasks={sorted(self.task_names)}, contributor={self.contributor!r})"
        )


def fragment_from_task(task: Task, **kwargs: object) -> WorkflowFragment:
    """Wrap a single task into a fragment."""

    return WorkflowFragment([task], **kwargs)  # type: ignore[arg-type]


def fragments_from_tasks(
    tasks: Iterable[Task], contributor: str | None = None
) -> list[WorkflowFragment]:
    """Wrap each task of ``tasks`` into its own single-task fragment."""

    return [
        WorkflowFragment([task], contributor=contributor) for task in tasks
    ]


class KnowledgeSet:
    """A collection of fragments (the set *K* of the paper).

    The knowledge set offers indexed lookups used by both the batch and the
    incremental construction algorithms: which fragments produce a given
    label, which fragments consume it, and which tasks exist across all
    fragments.
    """

    def __init__(self, fragments: Iterable[WorkflowFragment] = ()) -> None:
        self._fragments: dict[str, WorkflowFragment] = {}
        self._producing: dict[str, set[str]] = {}
        self._consuming: dict[str, set[str]] = {}
        for fragment in fragments:
            self.add(fragment)

    def add(self, fragment: WorkflowFragment) -> None:
        """Add a fragment to the knowledge set (idempotent by id)."""

        if fragment.fragment_id in self._fragments:
            return
        self._fragments[fragment.fragment_id] = fragment
        for task in fragment.tasks:
            for out in task.outputs:
                self._producing.setdefault(out, set()).add(fragment.fragment_id)
            for inp in task.inputs:
                self._consuming.setdefault(inp, set()).add(fragment.fragment_id)

    def extend(self, fragments: Iterable[WorkflowFragment]) -> None:
        for fragment in fragments:
            self.add(fragment)

    # -- queries -----------------------------------------------------------
    def __iter__(self) -> Iterator[WorkflowFragment]:
        return iter(self._fragments.values())

    def __len__(self) -> int:
        return len(self._fragments)

    def __contains__(self, fragment_id: str) -> bool:
        return fragment_id in self._fragments

    @property
    def fragment_ids(self) -> frozenset[str]:
        return frozenset(self._fragments)

    def get(self, fragment_id: str) -> WorkflowFragment | None:
        return self._fragments.get(fragment_id)

    def fragments_producing(self, label: str) -> list[WorkflowFragment]:
        """Fragments that contain a task outputting ``label``."""

        return [
            self._fragments[fid]
            for fid in sorted(self._producing.get(label, ()))
        ]

    def fragments_consuming(self, label: str) -> list[WorkflowFragment]:
        """Fragments that contain a task consuming ``label``."""

        return [
            self._fragments[fid]
            for fid in sorted(self._consuming.get(label, ()))
        ]

    def all_tasks(self) -> list[Task]:
        """All distinct tasks mentioned by any fragment."""

        seen: dict[str, Task] = {}
        for fragment in self._fragments.values():
            for task in fragment.tasks:
                seen.setdefault(task.name, task)
        return list(seen.values())

    def all_labels(self) -> frozenset[str]:
        labels: set[str] = set()
        for fragment in self._fragments.values():
            labels |= fragment.labels
        return frozenset(labels)

    def partition(self, buckets: int) -> list[list[WorkflowFragment]]:
        """Split the fragments round-robin into ``buckets`` groups.

        Used by the evaluation workloads to distribute knowledge evenly
        across hosts, mirroring the paper's experimental setup.
        """

        if buckets <= 0:
            raise ValueError("buckets must be positive")
        groups: list[list[WorkflowFragment]] = [[] for _ in range(buckets)]
        for index, fragment in enumerate(self._fragments.values()):
            groups[index % buckets].append(fragment)
        return groups

    def __repr__(self) -> str:
        return f"KnowledgeSet(fragments={len(self._fragments)})"


def knowledge_from_fragments(
    fragments: Sequence[WorkflowFragment],
) -> KnowledgeSet:
    """Convenience constructor mirroring the paper's notation ``K``."""

    return KnowledgeSet(fragments)
