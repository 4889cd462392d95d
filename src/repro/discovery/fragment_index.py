"""Versioned inverted index over a host's workflow fragments.

:class:`FragmentIndex` is the storage engine behind the
:class:`~repro.discovery.knowhow.FragmentManager`.  It extends the core
:class:`~repro.core.fragments.KnowledgeSet` (label → producing/consuming
fragments) with what the shared knowledge plane needs:

* **Label keys.**  The inherited produced/consumed-label keys answer
  "which fragments produce/consume this label" (the incremental variant's
  :class:`~repro.core.incremental.LocalFragmentSource` asks them); wire
  queries do not, since every know-how query asks for everything the
  initiator does not hold.
* **Ingestion sequence numbers.**  Every fragment receives a monotonically
  increasing sequence number when it is first added; :attr:`version` is the
  highest number handed out so far, and :meth:`fragments_since` returns
  only the knowledge ingested after a given version.  The workflow manager
  seeds its knowledge plane from its own host's fragments this way.
* **Cheap removal.**  Obsolete know-how is dropped from every index in
  O(fragment) instead of rebuilding the whole set.
"""

from __future__ import annotations

from typing import Iterable

from ..core.fragments import KnowledgeSet, WorkflowFragment


class FragmentIndex(KnowledgeSet):
    """A :class:`KnowledgeSet` with ingestion sequence numbers and removal.

    The inherited label indexes answer "which fragments produce/consume this
    artifact"; both are maintained eagerly on :meth:`add` / :meth:`discard`.
    """

    def __init__(self, fragments: Iterable[WorkflowFragment] = ()) -> None:
        self._sequence: dict[str, int] = {}
        self._next_sequence = 0
        super().__init__(fragments)

    # -- mutation ----------------------------------------------------------
    def add(self, fragment: WorkflowFragment) -> None:
        """Index a fragment (idempotent by id, like the base class)."""

        if fragment.fragment_id in self._fragments:
            return
        super().add(fragment)
        self._next_sequence += 1
        self._sequence[fragment.fragment_id] = self._next_sequence

    def discard(self, fragment_id: str) -> bool:
        """Remove a fragment from every index; returns whether it existed.

        The sequence number of a removed fragment is retired, never reused:
        :attr:`version` stays monotone, and a later :meth:`fragments_since`
        simply no longer returns the forgotten know-how.
        """

        fragment = self._fragments.pop(fragment_id, None)
        if fragment is None:
            return False
        self._sequence.pop(fragment_id, None)
        for task in fragment.tasks:
            for out in task.outputs:
                self._discard_key(self._producing, out, fragment_id)
            for inp in task.inputs:
                self._discard_key(self._consuming, inp, fragment_id)
        return True

    @staticmethod
    def _discard_key(index: dict[str, set[str]], key: str, fragment_id: str) -> None:
        bucket = index.get(key)
        if bucket is None:
            return
        bucket.discard(fragment_id)
        if not bucket:
            del index[key]

    # -- version stream ----------------------------------------------------
    @property
    def version(self) -> int:
        """The sequence number of the most recently ingested fragment."""

        return self._next_sequence

    def fragments_since(self, version: int) -> list[WorkflowFragment]:
        """Fragments ingested after ``version``, in ingestion order.

        ``fragments_since(0)`` is everything; ``fragments_since(self.version)``
        is empty.  Because removals only delete entries, iterating the
        insertion-ordered fragment table already yields ascending sequence
        numbers — the common ``version == 0`` case is a plain copy and the
        delta case an O(fragments) filter without sorting.
        """

        if version <= 0:
            return list(self._fragments.values())
        sequence = self._sequence
        return [
            fragment
            for fragment_id, fragment in self._fragments.items()
            if sequence[fragment_id] > version
        ]

    def __repr__(self) -> str:
        return (
            f"FragmentIndex(fragments={len(self._fragments)}, "
            f"version={self._next_sequence})"
        )
