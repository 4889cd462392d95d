"""The Fragment Manager: a host's database of workflow know-how.

The Fragment Manager "is responsible for maintaining a host's database of
workflow fragments and responding to knowhow queries during workflow
construction" (paper, Section 4.2).  Queries come in two flavours matching
the two construction strategies:

* *collect everything* (``want_all=True``) — used by the batch algorithm of
  Section 3.1, which gathers the entire community knowledge before
  colouring;
* *targeted* — used by the incremental variant, which only asks for
  fragments producing or consuming the labels at the boundary of the
  coloured region, excluding fragments the initiator already holds.

Both flavours additionally honour the *delta* field of a query
(``since_version``): the manager assigns every fragment a monotonically
increasing ingestion sequence number (see
:class:`~repro.discovery.fragment_index.FragmentIndex`), reports its
current :attr:`version` on every response, and a querier that already holds
everything up to version ``v`` receives only fragments ingested after
``v``.  Repeat workflows on a host that stays in sync with the community
therefore cost O(new knowledge), not O(community knowledge).

Queries are answered from the inverted label index; the one-pass linear
scan it replaced is the oracle in ``tests/reference/knowhow.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Iterable

from ..core.fragments import WorkflowFragment
from ..net.messages import FragmentQuery, FragmentResponse
from .fragment_index import FragmentIndex

_epoch_counter = itertools.count(1)


class FragmentManager:
    """Stores and serves the workflow fragments known to one host.

    :attr:`epoch` identifies this database *instance* (process-unique).
    Delta floors recorded by remote hosts are only meaningful against the
    instance that issued them: a new device reusing a departed host's id
    gets a fresh epoch, so stale floors are detected and ignored rather
    than silently hiding the new device's knowledge.
    """

    def __init__(
        self,
        host_id: str,
        fragments: Iterable[WorkflowFragment] = (),
        durability=None,
    ) -> None:
        self.host_id = host_id
        self.durability = durability
        self.epoch = next(_epoch_counter)
        if durability is not None:
            durability.epoch_started(self.epoch)
        self._knowledge = FragmentIndex()
        self.queries_answered = 0
        self.fragments_served = 0
        for fragment in fragments:
            self.add_fragment(fragment)

    # -- database ------------------------------------------------------------
    def add_fragment(self, fragment: WorkflowFragment) -> WorkflowFragment:
        """Store a fragment, attributing it to this host if unattributed."""

        if fragment.contributor is None:
            fragment = fragment.with_contributor(self.host_id)
        self._knowledge.add(fragment)
        if self.durability is not None:
            self.durability.fragment_added(fragment)
        return fragment

    def add_fragments(self, fragments: Iterable[WorkflowFragment]) -> None:
        for fragment in fragments:
            self.add_fragment(fragment)

    def remove_fragment(self, fragment_id: str) -> bool:
        """Forget a fragment (e.g. the know-how became obsolete)."""

        removed = self._knowledge.discard(fragment_id)
        if removed and self.durability is not None:
            self.durability.fragment_discarded(fragment_id)
        return removed

    @property
    def knowledge(self) -> FragmentIndex:
        return self._knowledge

    @property
    def version(self) -> int:
        """Monotone counter of fragment ingestions (the delta-query epoch)."""

        return self._knowledge.version

    @property
    def fragment_count(self) -> int:
        return len(self._knowledge)

    @property
    def fragment_ids(self) -> frozenset[str]:
        return self._knowledge.fragment_ids

    def all_fragments(self) -> list[WorkflowFragment]:
        return list(self._knowledge)

    def fragments_since(self, version: int) -> list[WorkflowFragment]:
        """Fragments ingested after ``version`` in ingestion order."""

        return self._knowledge.fragments_since(version)

    # -- query answering ---------------------------------------------------------
    def matching_fragments(self, query: FragmentQuery) -> list[WorkflowFragment]:
        """The fragments this host would return for ``query``.

        The result is ordered by ingestion sequence and honours all three
        narrowing fields: the label sets (unless ``want_all``), the
        exclusion list, and the delta floor ``since_version``.  A floor
        recorded against a different database instance
        (``query.since_epoch`` set but not this manager's :attr:`epoch`)
        is ignored — the querier's knowledge of *this* instance is empty.
        """

        if query.since_epoch >= 0 and query.since_epoch != self.epoch:
            query = replace(query, since_version=0, since_epoch=-1)
        knowledge = self._knowledge
        if query.want_all:
            candidates = knowledge.fragments_since(query.since_version)
        else:
            by_id: dict[str, WorkflowFragment] = {}
            for label in query.consuming:
                for fragment in knowledge.fragments_consuming(label):
                    by_id[fragment.fragment_id] = fragment
            for label in query.producing:
                for fragment in knowledge.fragments_producing(label):
                    by_id[fragment.fragment_id] = fragment
            candidates = sorted(
                by_id.values(),
                key=lambda f: knowledge.sequence_of(f.fragment_id),
            )
            if query.since_version > 0:
                candidates = [
                    fragment
                    for fragment in candidates
                    if knowledge.sequence_of(fragment.fragment_id)
                    > query.since_version
                ]
        if not query.exclude_fragment_ids:
            return candidates
        return [
            fragment
            for fragment in candidates
            if fragment.fragment_id not in query.exclude_fragment_ids
        ]

    def handle_query(self, query: FragmentQuery) -> FragmentResponse:
        """Build the wire response for an incoming know-how query.

        The response carries this manager's current :attr:`version` so the
        querier can record a high-water mark and issue delta queries later.
        """

        self.queries_answered += 1
        fragments = tuple(self.matching_fragments(query))
        self.fragments_served += len(fragments)
        return FragmentResponse(
            sender=self.host_id,
            recipient=query.sender,
            fragments=fragments,
            workflow_id=query.workflow_id,
            knowledge_version=self.version,
            knowledge_epoch=self.epoch,
        )

    def __repr__(self) -> str:
        return f"FragmentManager(host={self.host_id!r}, fragments={len(self._knowledge)})"
