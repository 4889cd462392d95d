"""The linear know-how scan that ``FragmentManager`` answers from an index."""

from __future__ import annotations

from repro.core.fragments import WorkflowFragment
from repro.discovery.fragment_index import FragmentIndex
from repro.net.messages import FragmentQuery


def matching_linear(
    knowledge: FragmentIndex, query: FragmentQuery
) -> list[WorkflowFragment]:
    """One pass over every stored fragment, in ingestion order.

    Honours the label sets (unless ``want_all``), the exclusion list and
    the delta floor ``since_version``; a query's ``since_epoch`` is the
    manager's business and is not looked at here.
    """

    matches: list[WorkflowFragment] = []
    for fragment in knowledge:
        if fragment.fragment_id in query.exclude_fragment_ids:
            continue
        if knowledge.sequence_of(fragment.fragment_id) <= query.since_version:
            continue
        if not query.want_all:
            relevant = any(
                fragment.consumes_label(label) for label in query.consuming
            ) or any(fragment.produces_label(label) for label in query.producing)
            if not relevant:
                continue
        matches.append(fragment)
    return matches
