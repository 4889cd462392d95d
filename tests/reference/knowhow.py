"""The one-pass know-how scan that ``FragmentManager`` answers queries with."""

from __future__ import annotations

from typing import Iterable

from repro.core.fragments import WorkflowFragment
from repro.net.messages import FragmentQuery


def matching_linear(
    ingested: Iterable[WorkflowFragment], query: FragmentQuery
) -> list[WorkflowFragment]:
    """Every fragment of ``ingested`` (the stored fragments in the order
    they were added) that the query does not exclude, in that order."""

    return [
        fragment
        for fragment in ingested
        if fragment.fragment_id not in query.exclude_fragment_ids
    ]
