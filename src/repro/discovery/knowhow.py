"""The Fragment Manager: a host's database of workflow know-how.

The Fragment Manager "is responsible for maintaining a host's database of
workflow fragments and responding to knowhow queries during workflow
construction" (paper, Section 4.2).  Every query is the batch algorithm's
(Section 3.1) "send me everything you know": the answer is every stored
fragment, in ingestion order, except those the query's exclusion list
names, which the initiator's knowledge plane already holds.  The one-pass
scan over the stored fragments is the oracle in
``tests/reference/knowhow.py``.

The manager also numbers every ingestion
(:class:`~repro.discovery.fragment_index.FragmentIndex`), so its own host
seeds the knowledge plane with only the know-how added since the previous
submission (:meth:`FragmentManager.fragments_since`).
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..core.fragments import WorkflowFragment
from ..net.messages import FragmentQuery, FragmentResponse
from .fragment_index import FragmentIndex

_epoch_counter = itertools.count(1)


class FragmentManager:
    """Stores and serves the workflow fragments known to one host.

    :attr:`epoch` identifies this database *instance* (process-unique); a
    durable host journals it, and a restarted or replacement instance gets
    a fresh one.
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
        """Monotone counter of fragment ingestions."""

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
        """Every stored fragment ``query`` does not exclude, in ingestion order."""

        excluded = query.exclude_fragment_ids
        return [
            fragment
            for fragment in self._knowledge
            if fragment.fragment_id not in excluded
        ]

    def handle_query(self, query: FragmentQuery) -> FragmentResponse:
        """Build the wire response for an incoming know-how query."""

        self.queries_answered += 1
        fragments = tuple(self.matching_fragments(query))
        self.fragments_served += len(fragments)
        return FragmentResponse(
            sender=self.host_id,
            recipient=query.sender,
            fragments=fragments,
            workflow_id=query.workflow_id,
        )

    def __repr__(self) -> str:
        return f"FragmentManager(host={self.host_id!r}, fragments={len(self._knowledge)})"
