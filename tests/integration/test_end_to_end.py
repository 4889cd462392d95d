"""Integration tests: the full construct -> allocate -> execute pipeline."""

import pytest

from repro.core import Task, WorkflowFragment
from repro.execution import CallableService, ServiceDescription
from repro.host import Community, WorkflowPhase
from repro.net.adhoc import AdHocWirelessNetwork
from repro.mobility.geometry import Point


class TestSimulatedNetworkPipeline:
    def test_two_host_breakfast(self, breakfast_community):
        workspace = breakfast_community.submit_problem(
            "alice", ["breakfast ingredients"], ["breakfast served"]
        )
        breakfast_community.run_until_completed(workspace)
        assert workspace.phase is WorkflowPhase.COMPLETED
        allocation = workspace.allocation_outcome.allocation
        # Each task went to a host actually offering the matching service.
        for task_name, host_id in allocation.items():
            host = breakfast_community.host(host_id)
            service_type = workspace.workflow.task(task_name).service_type
            assert host.service_manager.provides(service_type)

    def test_execution_respects_data_dependencies(self, breakfast_community):
        workspace = breakfast_community.submit_problem(
            "alice", ["breakfast ingredients"], ["breakfast served"]
        )
        breakfast_community.run_until_completed(workspace)
        outcomes = []
        for host in breakfast_community:
            outcomes.extend(host.execution_manager.outcomes)
        by_task = {o.commitment.task.name: o for o in outcomes}
        producer = by_task["set out ingredients"]
        consumer = by_task["cook omelets"]
        assert producer.completed_at <= consumer.completed_at
        assert consumer.succeeded

    def test_callable_services_pass_real_data(self):
        community = Community()
        log: list[str] = []

        def produce(task, inputs):
            log.append("produced")
            return {"dough": "fresh dough"}

        def consume(task, inputs):
            log.append(f"consumed {inputs['dough']}")
            return {"bread": "baked"}

        community.add_host(
            "miller",
            fragments=[WorkflowFragment([Task("make dough", ["flour"], ["dough"], duration=1)])],
            services=[CallableService("make dough", callable=produce, duration=1)],
        )
        community.add_host(
            "baker",
            fragments=[WorkflowFragment([Task("bake bread", ["dough"], ["bread"], duration=2)])],
            services=[CallableService("bake bread", callable=consume, duration=2)],
        )
        workspace = community.submit_problem("miller", ["flour"], ["bread"])
        community.run_until_completed(workspace)
        assert workspace.phase is WorkflowPhase.COMPLETED
        assert log == ["produced", "consumed fresh dough"]

    def test_single_host_solves_alone(self):
        community = Community()
        community.add_host(
            "solo",
            fragments=[
                WorkflowFragment([Task("t1", ["a"], ["b"], duration=1)]),
                WorkflowFragment([Task("t2", ["b"], ["c"], duration=1)]),
            ],
            services=[ServiceDescription("t1", duration=1), ServiceDescription("t2", duration=1)],
        )
        workspace = community.submit_problem("solo", ["a"], ["c"])
        community.run_until_completed(workspace)
        assert workspace.phase is WorkflowPhase.COMPLETED
        assert set(workspace.allocation_outcome.allocation.values()) == {"solo"}

    def test_infeasible_problem_fails_cleanly(self, breakfast_community):
        workspace = breakfast_community.submit_problem(
            "alice", ["breakfast ingredients"], ["world peace"]
        )
        breakfast_community.run_until_allocated(workspace)
        assert workspace.phase is WorkflowPhase.FAILED
        assert "construction failed" in workspace.failure_reason

    def test_no_capable_host_fails_allocation(self):
        community = Community()
        community.add_host(
            "knowledgeable",
            fragments=[WorkflowFragment([Task("t1", ["a"], ["b"], duration=1)])],
            services=[],  # knows how, cannot do
        )
        workspace = community.submit_problem("knowledgeable", ["a"], ["b"])
        community.run_until_allocated(workspace)
        assert workspace.phase is WorkflowPhase.FAILED
        assert "allocation failed" in workspace.failure_reason

    def test_any_host_can_initiate(self, breakfast_community):
        workspace = breakfast_community.submit_problem(
            "bob", ["breakfast ingredients"], ["breakfast served"]
        )
        breakfast_community.run_until_completed(workspace)
        assert workspace.phase is WorkflowPhase.COMPLETED


class TestAdHocWirelessPipeline:
    def build_wireless_community(self, radio_range: float = 150.0) -> Community:
        community = Community(
            network_factory=lambda scheduler: AdHocWirelessNetwork(
                scheduler, radio_range=radio_range, multi_hop=True
            )
        )
        community.add_host(
            "alice",
            fragments=[WorkflowFragment([Task("t1", ["a"], ["b"], duration=1)])],
            services=[ServiceDescription("t1", duration=1)],
            mobility=Point(0, 0),
        )
        community.add_host(
            "bob",
            fragments=[WorkflowFragment([Task("t2", ["b"], ["c"], duration=1)])],
            services=[ServiceDescription("t2", duration=1)],
            mobility=Point(100, 0),
        )
        community.add_host(
            "carol",
            fragments=[WorkflowFragment([Task("t3", ["c"], ["d"], duration=1)])],
            services=[ServiceDescription("t3", duration=1)],
            mobility=Point(200, 0),
        )
        return community

    def test_pipeline_over_wireless_with_multi_hop(self):
        community = self.build_wireless_community()
        # alice and carol are 200 m apart: out of direct range, reachable via bob.
        network = community.network
        assert not network.in_radio_range("alice", "carol")
        assert network.is_reachable("alice", "carol")
        workspace = community.submit_problem("alice", ["a"], ["d"])
        community.run_until_completed(workspace)
        assert workspace.phase is WorkflowPhase.COMPLETED
        sim_elapsed, _ = workspace.time_to_allocation()
        assert sim_elapsed > 0.0  # radio latency is visible in simulated time

    def test_partitioned_community_uses_what_it_can_reach(self):
        community = self.build_wireless_community(radio_range=120.0)
        # Only alice and bob can talk (carol is 100 m from bob but 200 m from
        # alice; with multi_hop routing through bob she is still reachable, so
        # shrink the range to cut her off completely).
        community.network.radio_range = 90.0
        workspace = community.submit_problem("alice", ["a"], ["d"])
        community.run_until_allocated(workspace)
        assert workspace.phase is WorkflowPhase.FAILED

    def test_message_accounting(self):
        community = self.build_wireless_community()
        workspace = community.submit_problem("alice", ["a"], ["d"])
        community.run_until_completed(workspace)
        stats = community.network.statistics
        assert stats.messages_delivered > 0
        assert stats.by_kind["FragmentQuery"] == 2
        assert stats.by_kind["FragmentResponse"] == 2
        # One call (and one answer) per participant, regardless of the 3
        # tasks, and one award per winner: each host is the only one that
        # offers its task.
        assert stats.by_kind["CallForBidsBatch"] == 3
        assert stats.by_kind["BidBatch"] == 3
        assert stats.by_kind["AwardBatch"] == 3
