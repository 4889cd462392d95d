"""Unit tests for the Auction Participation Manager."""

import pytest

from repro.allocation.participation import AuctionParticipationManager
from repro.core.tasks import Task
from repro.execution.engine import ExecutionManager
from repro.execution.services import ServiceDescription, ServiceManager
from repro.net.messages import (
    AwardBatch,
    AwardRejected,
    CallForBidsBatch,
    TaskAward,
    TaskBidOffer,
    TaskCall,
    TaskDecline,
)
from repro.scheduling.commitments import Commitment
from repro.scheduling.preferences import ParticipantPreferences
from repro.scheduling.schedule import ScheduleManager
from repro.sim.events import EventScheduler


def make_participant(services=None, preferences=None):
    scheduler = EventScheduler()
    service_manager = ServiceManager(
        "worker", services if services is not None else [ServiceDescription("cook", duration=10.0)]
    )
    schedule = ScheduleManager(
        "worker", clock=scheduler.clock, preferences=preferences or ParticipantPreferences()
    )
    sent: list = []
    execution = ExecutionManager("worker", scheduler, service_manager, sent.append)
    manager = AuctionParticipationManager(
        "worker", scheduler.clock, service_manager, schedule, execution
    )
    return manager, schedule, scheduler


def answer_to(manager, call: TaskCall) -> TaskBidOffer | TaskDecline:
    """The participant's answer to a call for bids on one task."""

    answer = manager.handle_call_for_bids_batch(
        CallForBidsBatch(sender="initiator", recipient="worker", workflow_id="w", calls=(call,))
    )
    assert answer.recipient == "initiator" and answer.workflow_id == "w"
    (entry,) = answer.bids + answer.declines
    return entry


def call_for(task: Task, earliest: float = 0.0) -> TaskCall:
    return TaskCall(task=task, earliest_start=earliest)


def accept(manager, task: Task, start: float = 0.0) -> AwardRejected | Commitment:
    """The participant's response to a one-task award."""

    (result,) = manager.handle_award_batch(
        AwardBatch(
            sender="initiator",
            recipient="worker",
            workflow_id="w",
            awards=(
                TaskAward(task=task, scheduled_start=start, trigger_labels=frozenset(task.inputs)),
            ),
        )
    )
    return result


class TestBidding:
    def test_capable_host_bids(self):
        manager, _, _ = make_participant()
        answer = answer_to(manager, call_for(Task("cook", ["a"], ["b"], duration=5.0), earliest=3.0))
        assert isinstance(answer, TaskBidOffer)
        assert answer.task_name == "cook"
        assert answer.specialization == 1
        assert answer.proposed_start == 3.0
        assert answer.response_deadline == float("inf")

    def test_incapable_host_declines(self):
        manager, _, _ = make_participant()
        answer = answer_to(manager, call_for(Task("fly", ["a"], ["b"])))
        assert isinstance(answer, TaskDecline)
        assert answer.task_name == "fly"
        assert "no service" in answer.reason

    def test_unwilling_host_declines(self):
        prefs = ParticipantPreferences(refused_service_types=frozenset({"cook"}))
        manager, _, _ = make_participant(preferences=prefs)
        answer = answer_to(manager, call_for(Task("cook", ["a"], ["b"], duration=1.0)))
        assert isinstance(answer, TaskDecline)
        assert "refuses" in answer.reason

    def test_bid_uses_service_duration_when_task_has_none(self):
        manager, _, _ = make_participant()
        answer = answer_to(manager, call_for(Task("cook", ["a"], ["b"])))
        assert isinstance(answer, TaskBidOffer)
        # The 10-s service does not fit a 5-s window, although the task
        # itself declares no duration.
        call = TaskCall(task=Task("cook", ["a"], ["b"]), earliest_start=0.0, deadline=5.0)
        assert isinstance(answer_to(manager, call), TaskDecline)

    def test_deadline_too_tight_declines(self):
        manager, schedule, _ = make_participant()
        schedule.add_commitment(
            Commitment(task=Task("busy", ["x"], ["y"], duration=100.0), workflow_id="other", start=0.0)
        )
        call = TaskCall(task=Task("cook", ["a"], ["b"], duration=10.0), earliest_start=0.0, deadline=50.0)
        answer = answer_to(manager, call)
        assert isinstance(answer, TaskDecline)

    def test_bid_validity_sets_response_deadline(self):
        prefs = ParticipantPreferences(bid_validity=60.0)
        manager, _, _ = make_participant(preferences=prefs)
        answer = answer_to(manager, call_for(Task("cook", ["a"], ["b"], duration=1.0)))
        assert isinstance(answer, TaskBidOffer)
        assert answer.response_deadline == pytest.approx(60.0)

    def test_one_answer_covers_every_task_of_the_call(self):
        manager, _, _ = make_participant()
        answer = manager.handle_call_for_bids_batch(
            CallForBidsBatch(
                sender="initiator",
                recipient="worker",
                workflow_id="w",
                calls=tuple(
                    call_for(Task(name, ["a"], ["b"], duration=5.0, service_type=service))
                    for name, service in (("t1", "cook"), ("t2", "fly"), ("t3", "cook"))
                ),
            )
        )
        # Bids reserve nothing: both cook tasks are offered the same slot.
        assert [(b.task_name, b.proposed_start) for b in answer.bids] == [("t1", 0.0), ("t3", 0.0)]
        assert [d.task_name for d in answer.declines] == ["t2"]


class TestAwards:
    def test_award_creates_commitment_and_watches_execution(self):
        manager, schedule, scheduler = make_participant()
        result = accept(manager, Task("cook", ["a"], ["b"], duration=5.0), start=10.0)
        assert isinstance(result, Commitment)
        assert (result.start, result.initiator, result.trigger_labels) == (10.0, "initiator", {"a"})
        assert schedule.has_commitment_for("w", "cook")
        scheduler.run()
        assert manager.execution.completed_count == 1

    def test_conflicting_award_moves_to_next_slot(self):
        manager, schedule, _ = make_participant()
        first = accept(manager, Task("cook", ["a"], ["b"], duration=50.0), start=0.0)
        second = accept(manager, Task("cook", ["c"], ["d"], duration=10.0), start=0.0)
        assert isinstance(second, Commitment)
        assert second.start >= first.end
        assert schedule.commitment_count() == 2

    def test_award_with_no_slot_left_is_rejected(self):
        prefs = ParticipantPreferences(working_hours=(0.0, 60.0))
        manager, schedule, _ = make_participant(preferences=prefs)
        accept(manager, Task("cook", ["a"], ["b"], duration=50.0), start=0.0)
        result = accept(manager, Task("bake", ["c"], ["d"], duration=20.0, service_type="cook"))
        assert isinstance(result, AwardRejected)
        assert (result.recipient, result.task_name) == ("initiator", "bake")
        assert schedule.commitment_count() == 1

    def test_redelivered_award_returns_the_first_commitment(self):
        manager, schedule, _ = make_participant()
        task = Task("cook", ["a"], ["b"], duration=5.0)
        first = accept(manager, task, start=10.0)
        assert accept(manager, task, start=10.0) is first
        assert schedule.commitment_count() == 1
