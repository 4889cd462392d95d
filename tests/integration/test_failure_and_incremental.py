"""Integration tests: failure injection, and Section 3.1's incremental
variant run against a community's know-how."""

import pytest

from repro.core import Task, WorkflowFragment
from repro.core.incremental import construct_incrementally
from repro.core.specification import Specification
from repro.execution import CallableService, ServiceDescription
from repro.host import Community, WorkflowPhase
from repro.scheduling import ParticipantPreferences


def build_chain_community() -> Community:
    community = Community()
    community.add_host(
        "one",
        fragments=[WorkflowFragment([Task("t1", ["a"], ["b"], duration=1)], fragment_id="i/f1")],
        services=[ServiceDescription("t1", duration=1)],
    )
    community.add_host(
        "two",
        fragments=[WorkflowFragment([Task("t2", ["b"], ["c"], duration=1)], fragment_id="i/f2")],
        services=[ServiceDescription("t2", duration=1)],
    )
    community.add_host(
        "three",
        fragments=[
            WorkflowFragment([Task("t3", ["c"], ["d"], duration=1)], fragment_id="i/f3"),
            WorkflowFragment([Task("noise", ["p"], ["q"], duration=1)], fragment_id="i/noise"),
        ],
        services=[ServiceDescription("t3", duration=1)],
    )
    return community


def incremental_from(community, initiator, triggers, goals):
    """The incremental variant as ``initiator`` would run it: starting from
    its own know-how and pulling the rest of the community's on demand."""

    remote = [
        fragment
        for host in community
        if host.host_id != initiator
        for fragment in host.fragment_manager.all_fragments()
    ]
    return construct_incrementally(
        remote,
        Specification(triggers=triggers, goals=goals),
        initial_fragments=community.host(initiator).fragment_manager.all_fragments(),
    )


class TestIncrementalDiscoveryMode:
    """The middleware discovers know-how in one batch round; the
    incremental variant of Section 3.1 stays a library algorithm
    (:class:`IncrementalConstructor`), checked here against the same
    communities."""

    def test_incremental_initiator_solves_the_chain(self):
        result = incremental_from(build_chain_community(), "one", ["a"], ["d"])
        assert result.succeeded
        assert result.workflow.task_names == {"t1", "t2", "t3"}

    def test_incremental_mode_uses_multiple_discovery_rounds(self):
        # A longer chain: the middle fragment is neither adjacent to the
        # initiator's coloured frontier nor a producer of the goal or of its
        # producer's input, so it can only be found in a second round of
        # targeted queries.
        community = Community()
        for index, (source, target) in enumerate(zip("abcde", "bcdef"), start=1):
            community.add_host(
                f"host-{index}",
                fragments=[WorkflowFragment([Task(f"t{index}", [source], [target], duration=1)])],
            )
        result = incremental_from(community, "host-1", ["a"], ["f"])
        assert result.succeeded
        assert result.incremental.rounds >= 2

    def test_incremental_failure_still_terminates(self):
        result = incremental_from(build_chain_community(), "one", ["a"], ["unobtainable"])
        assert not result.succeeded

    def test_batch_and_incremental_find_equivalent_workflows(self):
        batch = build_chain_community()
        ws_batch = batch.submit_problem("one", ["a"], ["d"])
        batch.run_until_allocated(ws_batch)
        incremental = incremental_from(build_chain_community(), "one", ["a"], ["d"])
        assert ws_batch.workflow.task_names == incremental.workflow.task_names
        # The incremental initiator never needed the irrelevant fragment.
        assert "i/noise" in ws_batch.supergraph.fragment_ids
        assert "i/noise" not in incremental.supergraph.fragment_ids


class TestParticipantDeparture:
    def test_host_leaving_before_submission_changes_the_plan(self, breakfast_fragments):
        community = Community()
        community.add_host(
            "alice",
            fragments=[breakfast_fragments[0], breakfast_fragments[2]],
            services=[
                ServiceDescription("set out ingredients", duration=5),
                ServiceDescription("make pancakes", duration=7),
                ServiceDescription("serve breakfast buffet", duration=3),
            ],
        )
        community.add_host(
            "bob",
            fragments=[breakfast_fragments[1]],
            services=[ServiceDescription("cook omelets", duration=10)],
        )
        community.remove_host("bob")
        workspace = community.submit_problem(
            "alice", ["breakfast ingredients"], ["breakfast served"]
        )
        community.run_until_completed(workspace)
        assert workspace.phase is WorkflowPhase.COMPLETED
        assert "cook omelets" not in workspace.workflow.task_names

    def test_unwilling_participant_is_routed_around(self):
        community = Community()
        community.add_host(
            "knows-everything",
            fragments=[
                WorkflowFragment([Task("t1", ["a"], ["b"], duration=1)]),
                WorkflowFragment([Task("t2", ["b"], ["c"], duration=1)]),
            ],
            services=[ServiceDescription("t1", duration=1), ServiceDescription("t2", duration=1)],
            preferences=ParticipantPreferences(refused_service_types=frozenset({"t2"})),
        )
        community.add_host(
            "helper",
            services=[ServiceDescription("t2", duration=1)],
        )
        workspace = community.submit_problem("knows-everything", ["a"], ["c"])
        community.run_until_completed(workspace)
        assert workspace.phase is WorkflowPhase.COMPLETED
        assert workspace.allocation_outcome.allocation["t2"] == "helper"

    def test_failing_service_marks_workflow_failed(self):
        def broken(task, inputs):
            raise RuntimeError("equipment failure")

        community = Community()
        community.add_host(
            "fragile",
            fragments=[WorkflowFragment([Task("t1", ["a"], ["b"], duration=1)])],
            services=[CallableService("t1", callable=broken, duration=1)],
        )
        workspace = community.submit_problem("fragile", ["a"], ["b"])
        community.run_until_allocated(workspace)
        community.run_idle()
        assert workspace.phase is WorkflowPhase.FAILED
        assert "t1" in workspace.failed_tasks
        assert "equipment failure" in workspace.failure_reason
        host = community.host("fragile")
        assert host.execution_manager.failed_count == 1
        assert not workspace.all_tasks_completed
        # Recovery is off by default, so no repair workspace was created.
        assert workspace.repaired_by is None
        assert len(host.workflow_manager.workspaces()) == 1

    def test_partition_during_allocation_is_survivable_when_local(self):
        community = build_chain_community()
        # Sever host "three" before submission: the goal d is unreachable.
        community.network.sever_host("three")
        workspace = community.submit_problem("one", ["a"], ["d"])
        community.run_until_allocated(workspace)
        assert workspace.phase is WorkflowPhase.FAILED
        # A goal within the reachable part still works.
        second = community.submit_problem("one", ["a"], ["c"])
        community.run_until_completed(second)
        assert second.phase is WorkflowPhase.COMPLETED
