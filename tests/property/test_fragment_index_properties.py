"""Property: know-how answers ≡ a one-pass scan of the ingestion order.

The :class:`~repro.discovery.knowhow.FragmentManager` answers every query
with the fragments it stores that the query does not exclude, in ingestion
order.  The oracle in ``tests/reference/knowhow.py`` scans the order in
which the test added them.  The two must agree *exactly* — same fragments,
same order — for any exclusion list, also after a removal and a
re-addition (which moves the fragment to the end), and
:meth:`~repro.discovery.knowhow.FragmentManager.fragments_since` must cut
that order at every version.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discovery.knowhow import FragmentManager
from repro.net.messages import FragmentQuery

from ..reference.knowhow import matching_linear
from .strategies import knowledge_sets

SETTINGS = settings(max_examples=80, deadline=None)


def _ids(fragments) -> list[str]:
    return [fragment.fragment_id for fragment in fragments]


@st.composite
def queries(draw) -> FragmentQuery:
    exclude = frozenset(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=12).map(
                    lambda i: f"prop-frag-{i}"
                ),
                max_size=5,
                unique=True,
            )
        )
    )
    return FragmentQuery(
        sender="asker", recipient="answerer", exclude_fragment_ids=exclude
    )


@SETTINGS
@given(fragments=knowledge_sets(max_fragments=12), query=queries())
def test_indexed_matching_equals_linear_scan(fragments, query):
    manager = FragmentManager("host", fragments)
    assert _ids(manager.matching_fragments(query)) == _ids(
        matching_linear(fragments, query)
    )


@SETTINGS
@given(
    fragments=knowledge_sets(min_fragments=2, max_fragments=12),
    query=queries(),
    data=st.data(),
)
def test_equivalence_survives_removal_and_readdition(fragments, query, data):
    manager = FragmentManager("host", fragments)
    version = manager.version
    victim = data.draw(st.sampled_from(sorted(manager.fragment_ids)))
    assert manager.remove_fragment(victim)
    assert victim not in manager.fragment_ids
    ingested = [f for f in fragments if f.fragment_id != victim]
    if data.draw(st.booleans()):
        fragment = next(f for f in fragments if f.fragment_id == victim)
        manager.add_fragment(fragment)
        ingested.append(fragment)
        # Re-ingestion assigns a fresh sequence number.
        assert manager.version == version + 1
        assert _ids(manager.fragments_since(version)) == [victim]
    assert _ids(manager.matching_fragments(query)) == _ids(
        matching_linear(ingested, query)
    )


@SETTINGS
@given(fragments=knowledge_sets(max_fragments=12))
def test_delta_floor_partitions_the_database(fragments):
    """fragments_since(v) is everything after the first v ingestions."""

    manager = FragmentManager("host", fragments)
    ingested = _ids(fragments)
    assert manager.version == len(ingested)
    for version in range(manager.version + 1):
        assert _ids(manager.fragments_since(version)) == ingested[version:]
