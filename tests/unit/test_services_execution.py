"""Unit tests for the Service Manager and the Execution Manager."""

import pytest

from repro.core.errors import ExecutionError, ServiceNotFoundError
from repro.core.fragments import WorkflowFragment
from repro.core.specification import Specification
from repro.core.tasks import Task, TaskMode
from repro.durability import HostDurability, InMemoryJournal, WorkspaceState
from repro.allocation.auction import MAX_SOLICITATIONS
from repro.execution.engine import INPUT_PULLS, INPUT_TIMEOUT, ExecutionManager
from repro.execution.services import (
    CallableService,
    ManualService,
    ServiceDescription,
    ServiceManager,
)
from repro.host.community import Community
from repro.host.workflow_manager import (
    LIVENESS_TIMEOUT,
    MAX_DISCOVERY_ATTEMPTS,
    MAX_PROGRESS_QUERIES,
    PROGRESS_QUERY_TIMEOUT,
)
from repro.host.workspace import WorkflowPhase
from repro.net.faults import NO_FAULT, FaultDecision, FaultPlane, HostCrash
from repro.net.messages import (
    AwardBatch,
    BidBatch,
    FragmentQuery,
    FragmentResponse,
    LabelBatch,
    LabelEntry,
    LabelReplayRequest,
    ProgressQuery,
    WorkflowProgressReport,
)
from repro.scheduling.commitments import Commitment
from repro.sim.events import EventScheduler
from repro.sim.randomness import RETRY_BACKOFF, RETRY_JITTER


class TestServiceDescriptions:
    def test_base_service_produces_provenance_records(self):
        service = ServiceDescription("cook", name="stove")
        outputs = service.execute(Task("cook", ["a"], ["meal"]), {"a": 1})
        assert set(outputs) == {"meal"}
        assert outputs["meal"]["produced_by"] == "stove"

    def test_callable_service_uses_callable(self):
        service = CallableService(
            "add", callable=lambda task, inputs: {"sum": inputs["x"] + inputs["y"]}
        )
        outputs = service.execute(Task("add", ["x", "y"], ["sum"]), {"x": 2, "y": 3})
        assert outputs["sum"] == 5

    def test_callable_service_fills_missing_outputs(self):
        service = CallableService("t", callable=lambda task, inputs: {})
        outputs = service.execute(Task("t", ["a"], ["b", "c"]), {})
        assert set(outputs) == {"b", "c"}

    def test_manual_service_marks_outputs(self):
        service = ManualService("sign-off")
        outputs = service.execute(Task("sign-off", ["report"], ["approved"]), {})
        assert outputs["approved"]["manual"] is True

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceDescription("")
        with pytest.raises(ValueError):
            ServiceDescription("x", duration=-1)


class TestServiceManager:
    def test_registry_queries(self):
        manager = ServiceManager("host", [ServiceDescription("cook"), ServiceDescription("serve")])
        assert manager.provides("cook")
        assert not manager.provides("fly")
        assert not manager.provides(None)
        assert manager.service_count == 2
        assert manager.matching(["cook", "fly"]) == {"cook"}
        assert manager.unregister("serve")
        assert not manager.unregister("serve")

    def test_expected_duration_prefers_task_then_service(self):
        manager = ServiceManager("host", [ServiceDescription("cook", duration=30.0)])
        assert manager.expected_duration(Task("cook", ["a"], ["b"], duration=10.0)) == 10.0
        assert manager.expected_duration(Task("cook", ["a"], ["b"])) == 30.0
        assert manager.expected_duration(Task("other", ["a"], ["b"])) == 0.0

    def test_invoke_unknown_service_raises(self):
        manager = ServiceManager("host")
        with pytest.raises(ServiceNotFoundError):
            manager.invoke(Task("cook", ["a"], ["b"]), {})

    def test_invoke_wraps_service_failures(self):
        def broken(task, inputs):
            raise RuntimeError("boom")

        manager = ServiceManager("host", [CallableService("cook", callable=broken)])
        with pytest.raises(ExecutionError):
            manager.invoke(Task("cook", ["a"], ["b"]), {})
        assert manager.invocations == 1


def make_execution_manager(services=None, robust=False):
    scheduler = EventScheduler()
    service_manager = ServiceManager("worker", services or [ServiceDescription("do", duration=5.0)])
    sent: list = []
    manager = ExecutionManager("worker", scheduler, service_manager, sent.append, robust=robust)
    return manager, scheduler, sent


def label_batch(sender, workflow_id, label, value=1):
    """A one-entry label delivery to ``worker``."""

    return LabelBatch(
        sender=sender,
        recipient="worker",
        workflow_id=workflow_id,
        entries=(LabelEntry(label, value),),
    )


def make_commitment(**overrides):
    defaults = dict(
        task=Task("do", ["input"], ["output"], duration=5.0),
        workflow_id="w1",
        start=10.0,
        input_sources={"input": "alice"},
        output_destinations={"output": ("bob",)},
        trigger_labels=frozenset(),
        initiator="alice",
    )
    defaults.update(overrides)
    return Commitment(**defaults)


class TestExecutionManager:
    def test_waits_for_time_and_inputs(self):
        manager, scheduler, sent = make_execution_manager()
        manager.watch(make_commitment())
        scheduler.run()  # start window passes but input never arrives
        assert manager.completed_count == 0
        manager.handle_label_batch(label_batch("alice", "w1", "input"))
        scheduler.run()
        assert manager.completed_count == 1
        kinds = {type(m).__name__ for m in sent}
        assert kinds == {"LabelBatch", "WorkflowProgressReport"}

    def test_trigger_labels_count_as_available(self):
        manager, scheduler, sent = make_execution_manager()
        manager.watch(make_commitment(trigger_labels=frozenset({"input"}), input_sources={}))
        scheduler.run()
        assert manager.completed_count == 1
        assert completion_reports(sent) == [("alice", "do")]
        assert scheduler.clock.now() == pytest.approx(15.0)  # start 10 + duration 5

    def test_disjunctive_task_needs_any_input(self):
        manager, scheduler, _ = make_execution_manager()
        commitment = make_commitment(
            task=Task("do", ["x", "y"], ["output"], mode=TaskMode.DISJUNCTIVE, duration=5.0),
            input_sources={"x": "alice", "y": "bob"},
        )
        manager.watch(commitment)
        manager.handle_label_batch(label_batch("bob", "w1", "y", value=2))
        scheduler.run()
        assert manager.completed_count == 1

    def test_wrong_workflow_labels_ignored(self):
        manager, scheduler, _ = make_execution_manager()
        manager.watch(make_commitment(trigger_labels=frozenset({"input"}), input_sources={}))
        manager.handle_label_batch(label_batch("x", "other", "input"))
        assert manager.pending_for_workflow("w1")
        assert manager.pending_for_workflow("other") == []

    def test_failed_service_recorded_as_failure(self):
        def broken(task, inputs):
            raise RuntimeError("no gas")

        manager, scheduler, sent = make_execution_manager(
            services=[CallableService("do", callable=broken, duration=1.0)]
        )
        manager.watch(make_commitment(trigger_labels=frozenset({"input"}), input_sources={}))
        scheduler.run()
        assert manager.failed_count == 1
        assert manager.completed_count == 0
        [report] = sent
        assert report.completions == ()
        [failure] = report.failures
        assert (failure.task_name, failure.transient) == ("do", False)
        assert failure.reason.endswith("no gas")

    def test_duplicate_watch_is_idempotent(self):
        manager, scheduler, _ = make_execution_manager()
        commitment = make_commitment(trigger_labels=frozenset({"input"}), input_sources={})
        first = manager.watch(commitment)
        second = manager.watch(commitment)
        assert first is second
        scheduler.run()
        assert manager.completed_count == 1

    def test_outputs_routed_to_each_destination(self):
        manager, scheduler, sent = make_execution_manager()
        commitment = make_commitment(
            trigger_labels=frozenset({"input"}),
            input_sources={},
            output_destinations={"output": ("bob", "carol")},
        )
        manager.watch(commitment)
        scheduler.run()
        label_messages = [m for m in sent if isinstance(m, LabelBatch)]
        assert {m.recipient for m in label_messages} == {"bob", "carol"}

    def test_unexpected_labels_counted(self):
        manager, scheduler, _ = make_execution_manager()
        assert manager.unexpected_labels == 0
        manager.handle_label_batch(label_batch("x", "w1", "stray"))
        assert manager.unexpected_labels == 1

    def test_trigger_index_emptied_after_completion(self):
        manager, scheduler, _ = make_execution_manager()
        manager.watch(make_commitment())
        assert manager._watchers  # watching the 'input' label
        manager.handle_label_batch(label_batch("alice", "w1", "input"))
        scheduler.run()
        assert manager.completed_count == 1
        # Index-key rule: the bucket emptied with its last watcher, and a
        # re-delivery of the same label now counts as unexpected.
        assert not manager._watchers
        manager.handle_label_batch(label_batch("alice", "w1", "input"))
        assert manager.unexpected_labels == 1


class TestBatchedExecutionProtocol:
    def test_outputs_batched_per_destination(self):
        manager, scheduler, sent = make_execution_manager()
        commitment = make_commitment(
            task=Task("do", ["input"], ["out-a", "out-b"], duration=5.0),
            trigger_labels=frozenset({"input"}),
            input_sources={},
            output_destinations={
                "out-a": ("bob", "carol"),
                "out-b": ("bob",),
            },
        )
        manager.watch(commitment)
        scheduler.run()
        batches = [m for m in sent if isinstance(m, LabelBatch)]
        assert {m.recipient for m in batches} == {"bob", "carol"}
        by_recipient = {m.recipient: [e.label for e in m.entries] for m in batches}
        assert by_recipient["bob"] == ["out-a", "out-b"]
        assert by_recipient["carol"] == ["out-a"]

    def test_progress_report_replaces_task_completed(self):
        manager, scheduler, sent = make_execution_manager()
        manager.watch(
            make_commitment(trigger_labels=frozenset({"input"}), input_sources={})
        )
        scheduler.run()
        reports = [m for m in sent if isinstance(m, WorkflowProgressReport)]
        assert len(reports) == 1
        assert [c.task_name for c in reports[0].completions] == ["do"]
        assert reports[0].failures == ()

    def test_pipeline_on_one_host_reports_once(self):
        """A local chain (A feeds B) coalesces into a single progress report."""

        manager, scheduler, sent = make_execution_manager(
            services=[
                CallableService("do", callable=lambda t, i: {"mid": 1}, duration=5.0),
                CallableService("then", callable=lambda t, i: {"goal": 2}, duration=5.0),
            ],
        )
        first = make_commitment(
            task=Task("do", ["input"], ["mid"], duration=5.0),
            trigger_labels=frozenset({"input"}),
            input_sources={},
            output_destinations={"mid": ("worker",)},
        )
        second = make_commitment(
            task=Task("then", ["mid"], ["goal"], service_type="then", duration=5.0),
            start=10.0,
            input_sources={"mid": "worker"},
            output_destinations={"goal": ("alice",)},
        )
        manager.watch(first)
        manager.watch(second)
        scheduler.run()
        assert manager.completed_count == 2
        reports = [m for m in sent if isinstance(m, WorkflowProgressReport)]
        assert len(reports) == 1
        assert [c.task_name for c in reports[0].completions] == ["do", "then"]

    def test_failure_flushes_buffered_completions(self):
        def broken(task, inputs):
            raise RuntimeError("no gas")

        manager, scheduler, sent = make_execution_manager(
            services=[
                CallableService("do", callable=lambda t, i: {"mid": 1}, duration=5.0),
                CallableService("then", callable=broken, duration=5.0),
            ],
        )
        first = make_commitment(
            task=Task("do", ["input"], ["mid"], duration=5.0),
            trigger_labels=frozenset({"input"}),
            input_sources={},
            output_destinations={"mid": ("worker",)},
        )
        second = make_commitment(
            task=Task("then", ["mid"], ["goal"], service_type="then", duration=5.0),
            start=10.0,
            input_sources={"mid": "worker"},
        )
        manager.watch(first)
        manager.watch(second)
        scheduler.run()
        reports = [m for m in sent if isinstance(m, WorkflowProgressReport)]
        assert len(reports) == 1
        assert [c.task_name for c in reports[0].completions] == ["do"]
        assert [f.task_name for f in reports[0].failures] == ["then"]

    def test_local_batch_delivery_feeds_dependent_task(self):
        """Labels bound for this host go through the same batch internals."""

        manager, scheduler, sent = make_execution_manager(
            services=[
                CallableService("do", callable=lambda t, i: {"mid": 7}, duration=1.0),
                CallableService("then", callable=lambda t, i: dict(i), duration=1.0),
            ],
        )
        producer = make_commitment(
            task=Task("do", ["input"], ["mid"], duration=1.0),
            trigger_labels=frozenset({"input"}),
            input_sources={},
            output_destinations={"mid": ("worker",)},
        )
        consumer = make_commitment(
            task=Task("then", ["mid"], ["goal"], service_type="then", duration=1.0),
            start=10.0,
            input_sources={"mid": "worker"},
            output_destinations={},
        )
        manager.watch(producer)
        manager.watch(consumer)
        scheduler.run()
        assert manager.completed_count == 2
        # The local delivery crossed no network: no LabelBatch was sent.
        assert not any(isinstance(m, LabelBatch) for m in sent)


class TestLabelReplayProtocol:
    """The input-replay path restarted durable hosts use (see
    :meth:`ExecutionManager.restore_invocations`): producers cache what
    they published and re-serve it on request; consumers ask the recorded
    sources for inputs their journal says are still missing."""

    def test_producer_replays_published_labels(self):
        manager, scheduler, sent = make_execution_manager()
        manager.watch(make_commitment(trigger_labels=frozenset({"input"})))
        scheduler.run()
        assert manager.completed_count == 1
        sent.clear()
        manager.handle_replay_request(
            LabelReplayRequest(
                sender="bob", recipient="worker", workflow_id="w1",
                labels=("output", "never-produced"),
            )
        )
        # One one-entry batch per label found, skipping the unknown one.
        [replay] = sent
        assert isinstance(replay, LabelBatch)
        assert (replay.recipient, replay.produced_by) == ("bob", "worker")
        assert [entry.label for entry in replay.entries] == ["output"]
        assert replay.size_bytes() == 64 + 88

    def test_replay_request_for_unknown_workflow_is_silent(self):
        manager, scheduler, sent = make_execution_manager()
        manager.handle_replay_request(
            LabelReplayRequest(
                sender="bob", recipient="worker", workflow_id="w9", labels=("x",)
            )
        )
        assert sent == []

    def test_restore_requests_missing_inputs_from_their_sources(self):
        from repro.durability import HostDurability, InMemoryJournal, WorkspaceState
        from repro.durability.plane import InvocationState

        manager, scheduler, sent = make_execution_manager()
        manager.durability = HostDurability(InMemoryJournal())
        commitment = make_commitment(
            task=Task("do", ["a", "b"], ["output"], duration=5.0),
            input_sources={"a": "alice", "b": "carol"},
        )
        record = InvocationState(commitment, inputs={"a": 1})
        manager.restore_invocations([record])
        assert manager.invocations_resumed == 1
        requests = [m for m in sent if isinstance(m, LabelReplayRequest)]
        # Only the still-missing input is requested, from its source.
        assert [(r.recipient, r.labels) for r in requests] == [("carol", ("b",))]
        # The mechanical restore was suspended: nothing re-journaled beyond
        # what the record already held.
        assert manager.durability.records_written == 0

    def test_restore_does_not_request_for_satisfied_invocations(self):
        from repro.durability.plane import InvocationState

        manager, scheduler, sent = make_execution_manager()
        record = InvocationState(make_commitment(), inputs={"input": 1})
        manager.restore_invocations([record])
        assert not any(isinstance(m, LabelReplayRequest) for m in sent)
        scheduler.run()
        assert manager.completed_count == 1


def completion_reports(sent) -> list[tuple[str, str]]:
    """(recipient, task) of every completion reported."""

    return [
        (message.recipient, completion.task_name)
        for message in sent
        if isinstance(message, WorkflowProgressReport)
        for completion in message.completions
    ]


class TestInputPulls:
    """Robust mode pulls a missing input from its producer at each of
    ``INPUT_PULLS`` (fractions of ``INPUT_TIMEOUT`` after the scheduled
    start) before the input timeout hands the invocation to repair."""

    def test_pulls_ask_the_producer_until_the_input_timeout(self):
        scheduler = EventScheduler()
        sent: list = []
        manager = ExecutionManager(
            "worker",
            scheduler,
            ServiceManager("worker", [ServiceDescription("do", duration=5.0)]),
            lambda message: sent.append((scheduler.clock.now(), message)),
            robust=True,
        )
        manager.watch(make_commitment())  # starts at 10 s, input from alice
        scheduler.run()
        requests = [
            (at, m.recipient, m.labels) for at, m in sent if isinstance(m, LabelReplayRequest)
        ]
        assert requests == [
            (10.0 + fraction * INPUT_TIMEOUT, "alice", ("input",)) for fraction in INPUT_PULLS
        ]
        assert manager.invocations_abandoned == 1
        assert scheduler.clock.now() == 10.0 + INPUT_TIMEOUT

    @pytest.mark.parametrize("replay_first", [True, False], ids=["replay-first", "original-first"])
    @pytest.mark.parametrize("late_while_running", [False, True], ids=["after", "during"])
    def test_a_pulled_label_fires_the_task_once(self, replay_first, late_while_running):
        # The producer publishes the consumer's input; that delivery is still
        # in flight when the consumer's first pull reaches the producer.
        producer_scheduler = EventScheduler()
        published: list = []
        producer = ExecutionManager(
            "alice",
            producer_scheduler,
            ServiceManager("alice", [ServiceDescription("make")]),
            published.append,
        )
        producer.watch(
            make_commitment(
                task=Task("make", ["seed"], ["input"]),
                start=0.0,
                trigger_labels=frozenset({"seed"}),
                input_sources={},
                output_destinations={"input": ("worker",)},
                initiator="",
            )
        )
        producer_scheduler.run()
        [original] = published

        manager, scheduler, sent = make_execution_manager(robust=True)
        manager.durability = HostDurability(InMemoryJournal())
        manager.watch(make_commitment())
        scheduler.run(until=10.0 + INPUT_PULLS[0] * INPUT_TIMEOUT)
        [request] = [m for m in sent if isinstance(m, LabelReplayRequest)]
        producer.handle_replay_request(request)
        [replay] = published[1:]
        assert isinstance(replay, LabelBatch)

        first, late = (replay, original) if replay_first else (original, replay)
        manager.handle_label_batch(first)
        # The late copy lands while the task executes, or after it completed.
        scheduler.run(until=scheduler.clock.now() + (1.0 if late_while_running else 10.0))
        assert manager.completed_count == (0 if late_while_running else 1)
        manager.handle_label_batch(late)
        scheduler.run()

        records = manager.durability.records()
        assert [r for r in records if r[0] == "inv-fired"] == [("inv-fired", "w1", "do")]
        # A copy that finds the invocation still open is an ordinary input;
        # one that comes after the completion is unexpected.
        assert [r[:4] for r in records if r[0] == "inv-input"] == [
            ("inv-input", "w1", "do", "input")
        ] * (2 if late_while_running else 1)
        assert completion_reports(sent) == [("alice", "do")]
        assert manager.unexpected_labels == (0 if late_while_running else 1)
        # No pull outlived the firing.
        assert [m for m in sent if isinstance(m, LabelReplayRequest)] == [request]

    def test_pull_timers_die_with_their_invocation(self):
        community = Community()
        community.add_host("alice")
        host = community.add_host(
            "worker", services=[ServiceDescription("do", duration=5.0)], fault_injection=True
        )
        manager, scope = host.execution_manager, host.scope

        def replay_requests() -> int:
            return community.network.statistics.by_kind.get("LabelReplayRequest", 0)

        # Start, then completion: the input arrives before the start window.
        started = manager.watch(make_commitment(workflow_id="w-start"))
        pulls = started.pull_events
        assert len(pulls) == len(INPUT_PULLS)
        assert scope.pending == 2 + len(INPUT_PULLS)  # start window, expiry, pulls
        manager.handle_label_batch(label_batch("alice", "w-start", "input"))
        community.scheduler.run(until=10.0)
        assert started.started and started.pull_events == ()
        assert all(handle.cancelled for handle in pulls)
        assert scope.pending == 1  # the execution only
        community.scheduler.run()
        assert started.completed and scope.pending == 0
        assert replay_requests() == 0

        # Expiry: every pull fires and asks, then the timeout gives up.
        expiring = manager.watch(make_commitment(workflow_id="w-expire", start=20.0))
        community.scheduler.run()
        assert manager.invocations_abandoned == 1
        assert expiring.pull_events == () and scope.pending == 0
        assert replay_requests() == len(INPUT_PULLS)

        # Crash: the scope cancels the pulls with everything else.
        waiting = manager.watch(
            make_commitment(workflow_id="w-crash", start=community.clock.now() + 10.0)
        )
        pulls = waiting.pull_events
        host.crash()
        assert scope.pending == 0
        assert all(handle.cancelled for handle in pulls)
        community.scheduler.run()
        assert replay_requests() == len(INPUT_PULLS)


class DropFirst:
    """A fault plane that loses the first message of one kind."""

    def __init__(self, kind: type) -> None:
        self.kind = kind
        self.dropped = 0

    def intercept(self, message, now: float) -> FaultDecision:
        if isinstance(message, self.kind) and not self.dropped:
            self.dropped += 1
            return FaultDecision(deliver=False)
        return NO_FAULT


PROGRESS_SPEC = Specification(triggers=["x"], goals=["y"])


def progress_community() -> Community:
    """``alice`` initiates a one-task workflow that only ``bob`` can run."""

    community = Community()
    robust = dict(fault_injection=True, enable_recovery=True)
    community.add_host(
        "alice",
        fragments=[
            WorkflowFragment([Task("t", ["x"], ["y"], service_type="svc", duration=5.0)])
        ],
        **robust,
    )
    community.add_host("bob", services=[ServiceDescription("svc", duration=5.0)], **robust)
    return community


def progress_queries(community) -> int:
    return community.network.statistics.by_kind.get("ProgressQuery", 0)


class TestProgressQuery:
    """Robust mode asks the outstanding tasks' executors before the liveness
    watchdog presumes them dead: a lost progress report is asked for, not
    repaired."""

    def test_an_executor_answers_only_for_tasks_it_completed(self):
        manager, scheduler, sent = make_execution_manager()
        for workflow_id, name in (("w1", "do"), ("w1", "other"), ("w2", "do")):
            manager.watch(
                make_commitment(
                    workflow_id=workflow_id,
                    task=Task(name, ["seed"], [f"{name}-out"], service_type="do"),
                    trigger_labels=frozenset({"seed"}),
                    input_sources={},
                )
            )
        # Its input never comes, so it is still pending when asked.
        manager.watch(make_commitment(task=Task("waiting", ["input"], ["x"], service_type="do")))
        scheduler.run()
        sent.clear()

        def ask(*task_names):
            manager.handle_progress_query(
                ProgressQuery(
                    sender="alice", recipient="worker", workflow_id="w1", task_names=task_names
                )
            )

        ask("do", "waiting", "unknown")
        [report] = sent
        assert isinstance(report, WorkflowProgressReport)
        assert (report.recipient, report.workflow_id, report.failures) == ("alice", "w1", ())
        assert [(c.task_name, c.completed_at, c.outputs) for c in report.completions] == [
            ("do", 15.0, frozenset({"do-out"}))
        ]
        sent.clear()
        ask("waiting", "unknown")
        assert sent == []

    def test_a_lost_report_is_asked_for_instead_of_repaired(self):
        community = progress_community()
        plane = DropFirst(WorkflowProgressReport)
        community.network.install_fault_plane(plane)
        workspace = community.submit_specification("alice", PROGRESS_SPEC)
        community.run_idle()

        manager = community.host("alice").workflow_manager
        assert plane.dropped == 1
        assert progress_queries(community) == 1
        assert workspace.phase is WorkflowPhase.COMPLETED
        # The task ran at once; the watchdog asked after LIVENESS_TIMEOUT and
        # bob's answer completed the workflow in its first revision.
        assert workspace.timestamps["completed"].sim_time == LIVENESS_TIMEOUT
        assert manager.liveness_timeouts == 0
        assert workspace.repaired_by is None
        assert manager.workspaces() == [workspace]

    def test_an_executor_that_never_ran_the_task_is_presumed_dead(self):
        community = progress_community()
        # bob crashes while running the task and comes back without it.
        community.install_fault_plane(
            FaultPlane(crashes=(HostCrash("bob", crash_at=1.0, restart_at=2.0),))
        )
        workspace = community.submit_specification("alice", PROGRESS_SPEC)
        community.run_until_completed(workspace)

        manager = community.host("alice").workflow_manager
        assert workspace.phase is WorkflowPhase.FAILED
        assert workspace.failure_reason == (
            "task 't' failed during execution: no progress for 120s with "
            "1 task(s) outstanding (executor presumed dead)"
        )
        assert progress_queries(community) == MAX_PROGRESS_QUERIES
        assert manager.liveness_timeouts == 1
        # Each unanswered round waited PROGRESS_QUERY_TIMEOUT, backed off.
        waits = [PROGRESS_QUERY_TIMEOUT * RETRY_BACKOFF**k for k in range(MAX_PROGRESS_QUERIES)]
        failed_at = workspace.timestamps["failed"].sim_time
        assert LIVENESS_TIMEOUT + sum(waits) <= failed_at
        assert failed_at <= LIVENESS_TIMEOUT + sum(waits) * (1 + RETRY_JITTER)
        # Repair started, and the restarted bob runs the repaired revision.
        assert workspace.repaired_by is not None
        community.run_idle()
        final = manager.final_workspace(workspace.workflow_id)
        assert final is not workspace and final.phase is WorkflowPhase.COMPLETED

    def test_a_task_without_an_executor_fails_without_asking(self):
        # A restarted initiator replays an executing revision whose only
        # winner was struck with no runner-up: the journaled allocation is
        # empty, so there is no one to ask.
        community = progress_community()
        manager = community.host("alice").workflow_manager
        manager.restore_workspaces(
            [
                WorkspaceState(
                    workflow_id="w",
                    specification=PROGRESS_SPEC,
                    participants=frozenset({"alice", "bob"}),
                    phase="executing",
                    expected_tasks=("t",),
                )
            ]
        )
        (workspace,) = manager.workspaces()
        assert workspace.allocation_outcome is None
        community.scheduler.run(until=LIVENESS_TIMEOUT)

        assert workspace.phase is WorkflowPhase.FAILED
        assert workspace.failure_reason.endswith("(executor presumed dead)")
        assert workspace.timestamps["failed"].sim_time == LIVENESS_TIMEOUT
        assert progress_queries(community) == 0
        assert manager.liveness_timeouts == 1
        assert workspace.repaired_by is not None

    @pytest.mark.parametrize("crash", [False, True], ids=["completion", "crash"])
    def test_no_query_timer_outlives_completion_or_a_crash(self, crash):
        community = progress_community()
        community.network.install_fault_plane(DropFirst(WorkflowProgressReport))
        alice = community.host("alice")
        workspace = community.submit_specification("alice", PROGRESS_SPEC)
        while not progress_queries(community):
            assert community.scheduler.step(), "the watchdog never asked"
        assert alice.scope.pending == 1  # the query round's timer

        if crash:
            alice.crash()
            assert alice.scope.pending == 0
            community.run_idle()
            assert workspace.phase is WorkflowPhase.EXECUTING
        else:
            community.run_until_completed(workspace)
            assert workspace.phase is WorkflowPhase.COMPLETED
            assert alice.scope.pending == 0
        assert progress_queries(community) == 1


class SilentBidder:
    """A fault plane that loses one host's first ``rounds`` bid answers and
    notes which revisions got awards."""

    def __init__(self, bidder: str, rounds: int) -> None:
        self.bidder = bidder
        self.rounds = rounds
        self.awarded: set[str] = set()

    def intercept(self, message, now: float) -> FaultDecision:
        if isinstance(message, AwardBatch):
            self.awarded.add(message.workflow_id)
        if isinstance(message, BidBatch) and message.sender == self.bidder and self.rounds:
            self.rounds -= 1
            return FaultDecision(deliver=False)
        return NO_FAULT


class TestAllocationRepair:
    """A revision whose auction leaves a task unallocated awards nothing and,
    with recovery, is repaired with that task still allowed."""

    def test_an_unallocated_task_is_repaired_not_half_awarded(self):
        community = Community()
        robust = dict(fault_injection=True, enable_recovery=True)
        tasks = [
            Task("prep", ["x"], ["m"], service_type="prep", duration=5.0),
            Task("cook", ["m"], ["y"], service_type="cook", duration=5.0),
        ]
        community.add_host("alice", fragments=[WorkflowFragment(tasks)], **robust)
        community.add_host("bob", services=[ServiceDescription("prep", duration=5.0)], **robust)
        community.add_host("carol", services=[ServiceDescription("cook", duration=5.0)], **robust)
        # carol, the only cook, misses every solicitation round of the first
        # revision and is written off.
        plane = SilentBidder("carol", MAX_SOLICITATIONS)
        community.network.install_fault_plane(plane)
        workspace = community.submit_specification("alice", PROGRESS_SPEC)
        community.run_idle()

        assert workspace.phase is WorkflowPhase.FAILED
        assert workspace.failure_reason == (
            "allocation failed: cook: no participant submitted a bid"
        )
        # bob's win for the failed revision was never awarded, so he ran nothing
        # for it.
        assert workspace.workflow_id not in plane.awarded
        manager = community.host("alice").workflow_manager
        final = manager.final_workspace(workspace.workflow_id)
        assert final is not workspace and final.phase is WorkflowPhase.COMPLETED
        assert workspace.repaired_by == final.workflow_id
        assert final.excluded_tasks == set()
        assert final.workflow_id in plane.awarded


class SilentRemote:
    """A fault plane that loses one host's first ``rounds`` know-how answers
    and counts the know-how queries each host is sent."""

    def __init__(self, remote: str, rounds: int) -> None:
        self.remote = remote
        self.rounds = rounds
        self.queries: dict[str, int] = {}

    def intercept(self, message, now: float) -> FaultDecision:
        if isinstance(message, FragmentQuery):
            self.queries[message.recipient] = self.queries.get(message.recipient, 0) + 1
        if isinstance(message, FragmentResponse) and message.sender == self.remote and self.rounds:
            self.rounds -= 1
            return FaultDecision(deliver=False)
        return NO_FAULT


def know_how_community(**initiator) -> Community:
    """``bob`` alone knows the one task (``x`` -> ``y``) that ``carol`` runs;
    ``initiator`` adds options to the initiator ``alice``."""

    community = Community()
    robust = dict(fault_injection=True, enable_recovery=True)
    community.add_host("alice", **robust, **initiator)
    community.add_host(
        "bob",
        fragments=[
            WorkflowFragment([Task("t", ["x"], ["y"], service_type="svc", duration=5.0)])
        ],
        **robust,
    )
    community.add_host("carol", services=[ServiceDescription("svc", duration=5.0)], **robust)
    return community


class TestConstructionRepair:
    """A revision that fails construction while some remote never answered
    (written off as silent, or not asked since the initiator restarted) is
    repaired: that remote's know-how never reached the plane, and the
    repair asks it again."""

    def test_know_how_of_a_written_off_remote_is_asked_for_again(self):
        community = know_how_community()
        # bob's answers are lost through every discovery round of the first
        # revision, so bob is written off and the goal is out of reach.
        plane = SilentRemote("bob", MAX_DISCOVERY_ATTEMPTS)
        community.network.install_fault_plane(plane)
        workspace = community.submit_specification("alice", PROGRESS_SPEC)
        community.run_idle()

        assert workspace.phase is WorkflowPhase.FAILED
        assert workspace.failure_reason.startswith("construction failed:")
        manager = community.host("alice").workflow_manager
        final = manager.final_workspace(workspace.workflow_id)
        assert final is not workspace and final.phase is WorkflowPhase.COMPLETED
        assert workspace.repaired_by == final.workflow_id
        assert final.excluded_tasks == set() and final.completed_tasks == {"t"}
        # carol answered the first round and is not asked again.
        assert plane.queries == {"bob": MAX_DISCOVERY_ATTEMPTS + 1, "carol": 1}

    def test_an_unsatisfiable_specification_is_not_repaired(self):
        community = know_how_community()
        workspace = community.submit_specification(
            "alice", Specification(triggers=["x"], goals=["nowhere"])
        )
        community.run_idle()

        assert workspace.phase is WorkflowPhase.FAILED
        assert workspace.failure_reason.startswith("construction failed:")
        # Every remote answered, so the plane holds all the community knows.
        assert workspace.repaired_by is None
        assert community.host("alice").workflow_manager.workspaces() == [workspace]

    def test_a_restored_revision_that_fails_construction_is_repaired(self):
        community = know_how_community(durability="memory")
        first = community.submit_specification("alice", PROGRESS_SPEC)
        community.run_idle()
        assert first.phase is WorkflowPhase.COMPLETED
        # The second workflow skips both synced remotes and is constructed
        # at once; alice crashes while it is being allocated.
        second = community.submit_specification("alice", PROGRESS_SPEC)
        assert second.remotes_skipped == 2
        assert second.phase is WorkflowPhase.ALLOCATION
        queries = community.network.statistics.kind_count("FragmentQuery")
        community.crash_host("alice")
        community.restart_host("alice")
        community.run_idle()

        # Construction re-ran over alice's own know-how (none) and the
        # revision's journaled responses (none), so it failed; the restarted
        # alice trusts no remote, and the repair asks every one again.
        manager = community.host("alice").workflow_manager
        restored = manager.workspace(second.workflow_id)
        assert restored.failure_reason.startswith("construction failed:")
        final = manager.final_workspace(second.workflow_id)
        assert final is not restored and final.phase is WorkflowPhase.COMPLETED
        assert final.completed_tasks == {"t"}
        assert community.network.statistics.kind_count("FragmentQuery") == queries + 2
