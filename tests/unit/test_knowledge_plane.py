"""Unit tests for the shared knowledge plane (PR 3).

Covers the pieces individually: the versioned fragment index and the
exclusion list that keeps a query to what the asker lacks, the batched
supergraph merge, the workflow manager's supergraph reuse and
synced-remote skipping, the memoized message sizes, the per-kind byte
counters, and the traffic report.
"""

from repro.analysis.reporting import traffic_table
from repro.core.fragments import WorkflowFragment
from repro.core.incremental import IncrementalConstructor, LocalFragmentSource
from repro.core.supergraph import Supergraph
from repro.core.tasks import Task
from repro.discovery.knowhow import FragmentManager
from repro.execution import ServiceDescription
from repro.host import Community, WorkflowPhase
from repro.net.messages import FragmentQuery, FragmentResponse


def fragment(name: str, inputs, outputs, fragment_id=None) -> WorkflowFragment:
    return WorkflowFragment(
        [Task(name, inputs, outputs, duration=1)], fragment_id=fragment_id
    )


def chain_community() -> Community:
    community = Community()
    community.add_host(
        "one",
        fragments=[fragment("t1", ["a"], ["b"], "f1")],
        services=[ServiceDescription("t1", duration=1)],
    )
    community.add_host(
        "two",
        fragments=[fragment("t2", ["b"], ["c"], "f2")],
        services=[ServiceDescription("t2", duration=1)],
    )
    return community


class TestDeltaQueries:
    def test_version_counts_ingestions(self):
        manager = FragmentManager("h")
        assert manager.version == 0
        manager.add_fragment(fragment("t1", ["a"], ["b"], "f1"))
        manager.add_fragment(fragment("t2", ["b"], ["c"], "f2"))
        assert manager.version == 2
        manager.add_fragment(fragment("t1", ["a"], ["b"], "f1"))  # duplicate id
        assert manager.version == 2
        manager.remove_fragment("f1")
        assert manager.version == 2  # versions are never reused

    def test_want_all_delta_returns_only_new_fragments(self):
        # An asker that already holds f1 names it in the exclusion list, so
        # the answer to "everything" is only what was added since.
        manager = FragmentManager("h")
        manager.add_fragment(fragment("t1", ["a"], ["b"], "f1"))
        manager.add_fragment(fragment("t2", ["b"], ["c"], "f2"))
        query = FragmentQuery(
            sender="asker", recipient="h", exclude_fragment_ids=frozenset({"f1"})
        )
        assert [f.fragment_id for f in manager.matching_fragments(query)] == ["f2"]


class TestBatchedIngestion:
    def test_batch_merge_bumps_version_once(self):
        graph = Supergraph()
        fragments = [
            fragment("t1", ["a"], ["b"], "f1"),
            fragment("t2", ["b"], ["c"], "f2"),
            fragment("t3", ["c"], ["d"], "f3"),
        ]
        changed = graph.add_fragments_batch(fragments)
        assert changed == 3
        assert graph.version == 1
        assert graph.fragment_ids == {"f1", "f2", "f3"}
        # A second batch of already-known fragments is a no-op.
        assert graph.add_fragments_batch(fragments) == 0
        assert graph.version == 1

    def test_batch_merge_journals_one_dirty_region(self):
        graph = Supergraph([fragment("t0", ["z"], ["a"], "f0")])
        base = graph.version
        graph.add_fragments_batch(
            [fragment("t1", ["a"], ["b"], "f1"), fragment("t2", ["b"], ["c"], "f2")]
        )
        dirty = graph.dirty_since(base)
        names = {node.name for node in dirty}
        assert {"t1", "t2", "b", "c"} <= names
        assert graph.dirty_since(graph.version) == frozenset()


class TestSharedSupergraphReuse:
    def test_second_submission_sends_no_fragment_traffic(self):
        community = chain_community()
        first = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(first)
        stats = community.network.statistics
        queries_after_first = stats.kind_count("FragmentQuery")
        second = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(second)
        assert first.phase is WorkflowPhase.EXECUTING
        assert second.phase is WorkflowPhase.EXECUTING
        assert stats.kind_count("FragmentQuery") == queries_after_first
        assert second.remotes_skipped == 1
        assert second.fragments_reused == 2
        assert second.fragments_collected == 0
        # Both workspaces share the host's one graph.
        manager = community.host("one").workflow_manager
        assert first.supergraph is manager.supergraph
        assert second.supergraph is manager.supergraph

    def test_incremental_mode_short_circuits_on_synced_plane(self):
        # The incremental variant, run over the plane a first workflow
        # synced, finds everything it needs there and pulls nothing.
        community = chain_community()
        first = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(first)
        source = LocalFragmentSource(community.host("two").fragment_manager.knowledge)
        result = IncrementalConstructor(source, seed_with_goal_producers=False).construct(
            first.specification,
            supergraph=community.host("one").workflow_manager.supergraph,
        )
        assert result.succeeded
        assert result.incremental.rounds == 0
        assert source.query_count == 0

    def test_unsolvable_repeat_fails_without_traffic(self):
        community = chain_community()
        first = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(first)
        stats = community.network.statistics
        queries_after_first = stats.kind_count("FragmentQuery")
        second = community.submit_problem("one", ["a"], ["nowhere"])
        community.run_until_allocated(second)
        assert second.phase is WorkflowPhase.FAILED
        assert "construction failed" in second.failure_reason
        assert stats.kind_count("FragmentQuery") == queries_after_first

    def test_new_host_after_sync_is_still_queried(self):
        community = chain_community()
        first = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(first)
        community.add_host(
            "three",
            fragments=[fragment("t3", ["c"], ["d"], "f3")],
            services=[ServiceDescription("t3", duration=1)],
        )
        second = community.submit_problem("one", ["a"], ["d"])
        community.run_until_completed(second)
        assert second.phase is WorkflowPhase.COMPLETED
        # Only the unknown host was queried; the synced one was skipped.
        assert second.remotes_skipped == 1
        assert "f3" in second.supergraph.fragment_ids

    def test_summary_exposes_reuse_counters(self):
        community = chain_community()
        first = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(first)
        second = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(second)
        summary = second.summary()
        assert summary["fragments_reused"] == 2
        assert summary["remotes_skipped"] == 1

    def test_a_reused_host_id_is_not_asked_again(self):
        # A synced remote is trusted for the community's lifetime, so a new
        # device that takes a departed host's id is not asked.
        community = chain_community()
        first = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(first)
        community.remove_host("two")
        community.add_host(
            "two",
            fragments=[fragment("t4", ["a"], ["d"], "f4")],
            services=[ServiceDescription("t4", duration=1)],
        )
        queries = community.network.statistics.kind_count("FragmentQuery")
        second = community.submit_problem("one", ["a"], ["d"])
        community.run_until_completed(second)
        assert second.phase is WorkflowPhase.FAILED
        assert second.remotes_skipped == 1
        assert "f4" not in second.supergraph.fragment_ids
        assert community.network.statistics.kind_count("FragmentQuery") == queries

    def test_queries_exclude_what_the_plane_holds(self):
        # Every know-how query lists the plane's fragment ids: one's own f1
        # at first contact with two, and f2 too when three joins later.
        community = chain_community()
        queries: list[FragmentQuery] = []
        original_send = community.network.send

        def spy(message):
            if isinstance(message, FragmentQuery):
                queries.append(message)
            original_send(message)

        community.network.send = spy
        first = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(first)
        community.add_host("three", fragments=[fragment("t3", ["c"], ["d"], "f3")])
        second = community.submit_problem("one", ["a"], ["d"])
        community.run_until_allocated(second)
        assert [query.recipient for query in queries] == ["two", "three"]
        assert queries[0].exclude_fragment_ids == {"f1"}
        assert queries[1].exclude_fragment_ids == {"f1", "f2"}

    def test_default_refresh_interval_is_infinite(self):
        # A sync never goes stale: however much simulated time passes, a
        # remote that answered is not asked again.
        community = chain_community()
        community.submit_problem("one", ["a"], ["c"])
        community.run_idle()
        queries = community.network.statistics.kind_count("FragmentQuery")
        community.clock.advance(1e9)
        second = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(second)
        assert second.phase is WorkflowPhase.EXECUTING
        assert second.remotes_skipped == 1
        assert community.network.statistics.kind_count("FragmentQuery") == queries


class TestMemoizedMessageSizes:
    def test_size_computed_once_and_cached(self):
        calls = 0
        frag = fragment("t1", ["a"], ["b"], "f1")
        response = FragmentResponse(sender="a", recipient="b", fragments=(frag,))
        original = type(response)._payload_bytes

        def counting(self):
            nonlocal calls
            calls += 1
            return original(self)

        type(response)._payload_bytes = counting
        try:
            first = response.size_bytes()
            second = response.size_bytes()
        finally:
            type(response)._payload_bytes = original
        assert first == second > 0
        assert calls == 1

    def test_each_excluded_id_adds_eight_bytes_to_a_query(self):
        plain = FragmentQuery(sender="a", recipient="b")
        excluding = FragmentQuery(
            sender="a", recipient="b", exclude_fragment_ids=frozenset({"f1", "f2"})
        )
        assert excluding.size_bytes() == plain.size_bytes() + 16


class TestByteCounters:
    def test_bytes_by_kind_tracks_sizes(self):
        community = chain_community()
        workspace = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(workspace)
        stats = community.network.statistics
        assert stats.bytes_by_kind["FragmentQuery"] > 0
        assert stats.bytes_by_kind["FragmentResponse"] > 0
        assert sum(stats.bytes_by_kind.values()) == stats.bytes_sent
        assert set(stats.bytes_by_kind) == set(stats.by_kind)
        payload = stats.as_dict()
        assert payload["bytes_by_kind"] == stats.bytes_by_kind

    def test_traffic_table_renders_kinds_and_total(self):
        community = chain_community()
        workspace = community.submit_problem("one", ["a"], ["c"])
        community.run_until_allocated(workspace)
        table = traffic_table(community.network.statistics.as_dict())
        assert "FragmentResponse" in table
        assert "total" in table
        lines = table.strip().splitlines()
        assert lines[1].split() == ["kind", "messages", "bytes", "dropped"]
