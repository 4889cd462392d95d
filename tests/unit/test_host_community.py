"""Unit tests for Host message dispatch and the Community container."""

from dataclasses import replace

import pytest

from repro.core import Task, WorkflowFragment
from repro.core.errors import OpenWorkflowError
from repro.core.solver import ColoringSolver
from repro.execution import ServiceDescription
from repro.experiments.trials import build_trial_community
from repro.host import Community, HostConfig, WorkflowPhase
from repro.workloads.supergraph_gen import RandomSupergraphWorkload
from repro.net.messages import CapabilityQuery, FragmentQuery, Message


class TestCommunityMembership:
    def test_add_and_remove_hosts(self):
        community = Community()
        community.add_host("a")
        community.add_host("b")
        assert community.host_ids == ["a", "b"]
        assert "a" in community and len(community) == 2
        community.remove_host("a")
        assert community.host_ids == ["b"]
        assert not community.network.is_registered("a")

    def test_duplicate_host_rejected(self):
        community = Community()
        community.add_host("a")
        with pytest.raises(OpenWorkflowError):
            community.add_host("a")

    def test_community_wide_views(self):
        community = Community()
        community.add_host(
            "a",
            fragments=[WorkflowFragment([Task("t1", ["x"], ["y"])])],
            services=[ServiceDescription("t1")],
        )
        community.add_host(
            "b",
            fragments=[WorkflowFragment([Task("t2", ["y"], ["z"])])],
            services=[ServiceDescription("t2")],
        )
        assert community.total_fragments() == 2
        assert community.all_service_types() == {"t1", "t2"}
        assert community.all_labels() == {"x", "y", "z"}


class TestHostConfig:
    def test_every_manager_is_built_from_the_config(self):
        config = HostConfig(
            capability_aware=True,
            solver="coloring",
            fault_injection=True,
            enable_recovery=True,
            max_repair_attempts=5,
            durability="memory",
            durable_outputs=False,
        )
        host = Community().add_host("a", config=config)
        assert host.config is config
        workflow = host.workflow_manager
        assert workflow.capability_aware
        assert type(workflow.solver) is ColoringSolver
        assert workflow.robust and workflow.enable_recovery
        assert workflow.max_repair_attempts == 5
        assert host.auction_manager.robust
        assert host.execution_manager.robust
        assert host.durability is not None and not host.durability.journal_outputs

    def test_options_override_fields_of_the_config(self):
        base = HostConfig(fault_injection=True, max_repair_attempts=5)
        host = Community().add_host("a", config=base, enable_recovery=True)
        assert host.config == replace(base, enable_recovery=True)
        with pytest.raises(TypeError):
            Community().add_host("b", fault_injektion=True)

    def test_restart_rebuilds_the_host_from_its_config(self):
        community = Community()
        config = HostConfig(capability_aware=True, fault_injection=True)
        community.add_host("a", config=config)
        community.crash_host("a")
        assert community.restart_host("a").config is config

    def test_trial_community_passes_the_config_to_every_host(self):
        workload = RandomSupergraphWorkload(seed=3).generate(25)
        config = HostConfig(fault_injection=True, enable_recovery=True)
        community = build_trial_community(
            workload, 4, seed=3, config=config, max_repair_attempts=6
        )
        expected = replace(config, max_repair_attempts=6)
        assert [host.config for host in community] == [expected] * 4


class TestHostDispatch:
    def test_fragment_query_answered(self, breakfast_community):
        community = breakfast_community
        alice = community.host("alice")
        bob = community.host("bob")
        community.network.send(
            FragmentQuery(sender="alice", recipient="bob", workflow_id="w")
        )
        community.run_idle()
        assert bob.fragment_manager.queries_answered == 1
        assert bob.messages_received == 1
        # Alice receives the response even though no workspace expects it.
        assert alice.messages_received == 1

    def test_capability_query_answered(self, breakfast_community):
        community = breakfast_community
        community.network.send(
            CapabilityQuery(
                sender="alice", recipient="bob",
                service_types=frozenset({"cook omelets", "fly"}), workflow_id="w",
            )
        )
        community.run_idle()
        alice = community.host("alice")
        assert alice.workflow_manager.capabilities.hosts_providing("cook omelets") == {"bob"}
        assert not alice.workflow_manager.capabilities.is_available("fly")

    def test_unknown_message_kind_ignored(self, breakfast_community):
        community = breakfast_community
        community.network.send(Message(sender="alice", recipient="bob"))
        community.run_idle()
        assert community.host("bob").messages_received == 1

    def test_add_fragment_and_service_after_creation(self, breakfast_community):
        host = breakfast_community.host("alice")
        before = host.fragment_count
        host.add_fragment(WorkflowFragment([Task("extra", ["p"], ["q"])]))
        host.add_service(ServiceDescription("extra"))
        assert host.fragment_count == before + 1
        assert "extra" in host.service_types


class TestCommunityProblemRunning:
    def test_submit_and_run_until_allocated(self, breakfast_community):
        workspace = breakfast_community.submit_problem(
            "alice", ["breakfast ingredients"], ["breakfast served"]
        )
        breakfast_community.run_until_allocated(workspace)
        assert workspace.phase is WorkflowPhase.EXECUTING
        assert workspace.is_allocated

    def test_run_until_completed(self, breakfast_community):
        workspace = breakfast_community.submit_problem(
            "alice", ["breakfast ingredients"], ["breakfast served"]
        )
        breakfast_community.run_until_completed(workspace)
        assert workspace.phase is WorkflowPhase.COMPLETED
        assert workspace.all_tasks_completed

    def test_commitments_visible_on_hosts(self, breakfast_community):
        workspace = breakfast_community.submit_problem(
            "alice", ["breakfast ingredients"], ["breakfast served"]
        )
        breakfast_community.run_until_completed(workspace)
        total_commitments = sum(
            len(host.commitments()) for host in breakfast_community
        )
        assert total_commitments == len(workspace.expected_tasks)


class TestCrashRestart:
    def test_restart_of_alive_host_is_a_benign_noop(self):
        community = Community()
        community.add_host("a")
        assert community.restart_host("a") is None
        assert community.host_ids == ["a"]
        assert community.hosts_restarted == 0

    def test_restart_of_unknown_host_raises(self):
        community = Community()
        community.add_host("a")
        with pytest.raises(OpenWorkflowError, match="unknown host 'ghost'"):
            community.restart_host("ghost")

    def test_restart_of_removed_host_raises(self):
        # remove_host is a permanent departure: the recipe is dropped, so a
        # later restart attempt is a misrouted fault schedule, not a no-op.
        community = Community()
        community.add_host("a")
        community.remove_host("a")
        with pytest.raises(OpenWorkflowError, match="unknown host 'a'"):
            community.restart_host("a")

    def test_crash_then_restart_round_trip(self):
        community = Community()
        fragment = WorkflowFragment([Task("t1", ["x"], ["y"])], fragment_id="f1")
        community.add_host("a", fragments=[fragment])
        crashed = community.crash_host("a")
        assert crashed is not None and "a" not in community
        restarted = community.restart_host("a")
        assert restarted is not None and "a" in community
        assert [f.fragment_id for f in restarted.fragment_manager.all_fragments()] == ["f1"]
        assert community.hosts_crashed == 1 and community.hosts_restarted == 1

    def test_double_crash_keeps_fragment_epochs_monotonic(self):
        """Regression: crash_host used to mutate the stored recipe in place.

        The second crash of a restarted host would then overwrite the
        fragment snapshot the first restart was built from.  Two full
        crash/restart cycles must hand each incarnation a strictly larger
        database epoch and the same fragment set every time.
        """

        community = Community()
        fragment = WorkflowFragment([Task("t1", ["x"], ["y"])], fragment_id="f1")
        original_recipe_fragments = (fragment,)
        community.add_host("a", fragments=original_recipe_fragments)
        epochs = [community.host("a").fragment_manager.epoch]

        for _ in range(2):
            host = community.crash_host("a")
            assert host is not None
            # The snapshot taken at crash time must be a *new* tuple, not the
            # one the previous incarnation was built from.
            assert community._recipes["a"].fragments is not original_recipe_fragments
            restarted = community.restart_host("a")
            epochs.append(restarted.fragment_manager.epoch)
            assert [f.fragment_id for f in restarted.fragment_manager.all_fragments()] == ["f1"]

        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)
        assert community.hosts_crashed == 2 and community.hosts_restarted == 2

    def test_restart_with_durability_replays_the_journal(self):
        community = Community()
        fragment = WorkflowFragment([Task("t1", ["x"], ["y"])], fragment_id="f1")
        community.add_host("a", fragments=[fragment], durability="memory")
        extra = WorkflowFragment([Task("t2", ["y"], ["z"])], fragment_id="f2")
        community.host("a").add_fragment(extra)
        community.crash_host("a")
        restarted = community.restart_host("a")
        # The journal, not the recipe snapshot, is the flash image: the
        # fragment added after deployment survives the crash.
        ids = {f.fragment_id for f in restarted.fragment_manager.all_fragments()}
        assert ids == {"f1", "f2"}
        # Epochs of both incarnations are on the durable record, in order.
        epochs = restarted.durability.state().epochs
        assert len(epochs) == 2 and epochs == sorted(set(epochs))

    def test_remove_host_releases_the_durability_backend(self):
        community = Community()
        community.add_host("a", durability="memory")
        assert "a" in community._durability_backends
        community.remove_host("a")
        assert "a" not in community._durability_backends
