"""Unit tests for bids, selection policies, and the Auction Manager."""

import weakref

import pytest

from repro.allocation.auction import AllocationOutcome, AuctionManager
from repro.allocation.bids import (
    Bid,
    EarliestStartPolicy,
    LeastTravelPolicy,
    RandomPolicy,
    SpecializationPolicy,
    rank_bids,
    select_best,
)
from repro.core.specification import Specification
from repro.core.tasks import Task
from repro.core.workflow import Workflow
from repro.net.messages import (
    AwardBatch,
    AwardRejected,
    BidBatch,
    CallForBidsBatch,
    TaskBidOffer,
    TaskDecline,
)
from repro.sim.events import EventScheduler


def bid(bidder: str, specialization: int = 1, start: float = 0.0, travel: float = 0.0,
        deadline: float = float("inf"), task: str = "t") -> Bid:
    return Bid(
        bidder=bidder,
        task_name=task,
        specialization=specialization,
        proposed_start=start,
        travel_time=travel,
        response_deadline=deadline,
    )


class TestPolicies:
    def test_specialization_policy_prefers_fewer_services(self):
        winner = select_best([bid("generalist", 10), bid("specialist", 1)])
        assert winner.bidder == "specialist"

    def test_specialization_ties_broken_by_start_then_name(self):
        winner = select_best([bid("late", 2, start=10.0), bid("early", 2, start=1.0)])
        assert winner.bidder == "early"
        winner = select_best([bid("zed", 2, start=1.0), bid("abe", 2, start=1.0)])
        assert winner.bidder == "abe"

    def test_earliest_start_policy(self):
        winner = select_best(
            [bid("specialist", 1, start=50.0), bid("generalist", 9, start=5.0)],
            policy=EarliestStartPolicy(),
        )
        assert winner.bidder == "generalist"

    def test_least_travel_policy(self):
        winner = select_best(
            [bid("far", 1, travel=100.0), bid("near", 5, travel=1.0)],
            policy=LeastTravelPolicy(),
        )
        assert winner.bidder == "near"

    def test_random_policy_is_deterministic_for_a_seed(self):
        bids = [bid("a"), bid("b"), bid("c")]
        first = select_best(bids, policy=RandomPolicy(seed=3))
        second = select_best(bids, policy=RandomPolicy(seed=3))
        assert first == second

    def test_rank_and_empty_selection(self):
        ranked = rank_bids([bid("a", 3), bid("b", 1), bid("c", 2)])
        assert [b.bidder for b in ranked] == ["b", "c", "a"]
        with pytest.raises(ValueError):
            select_best([])


def make_auction(policy=None, **options):
    scheduler = EventScheduler()
    sent: list = []
    manager = AuctionManager(
        "initiator",
        scheduler,
        sent.append,
        policy=policy or SpecializationPolicy(),
        **options,
    )
    return manager, scheduler, sent


def offers(sender: str, *tasks: str, **fields) -> BidBatch:
    """``sender``'s answer: a firm bid on each of ``tasks``."""

    return BidBatch(
        sender=sender,
        recipient="initiator",
        workflow_id="w",
        bids=tuple(TaskBidOffer(task_name=task, **fields) for task in tasks),
    )


def declines(sender: str, *tasks: str) -> BidBatch:
    """``sender``'s answer: an explicit decline of each of ``tasks``."""

    return BidBatch(
        sender=sender,
        recipient="initiator",
        workflow_id="w",
        declines=tuple(TaskDecline(task_name=task, reason="busy") for task in tasks),
    )


def award_batches(sent) -> list[AwardBatch]:
    return [m for m in sent if isinstance(m, AwardBatch)]


def simple_workflow() -> Workflow:
    return Workflow([Task("t1", ["a"], ["b"], duration=1.0), Task("t2", ["b"], ["c"], duration=1.0)])


SPEC = Specification(["a"], ["c"])


class TestAuctionManager:
    def test_calls_for_bids_sent_to_every_participant(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["initiator", "x", "y"], outcomes.append)
        calls = [m for m in sent if isinstance(m, CallForBidsBatch)]
        assert {c.recipient for c in calls} == {"initiator", "x", "y"}
        for call in calls:
            # Each task's window starts when its producers could have finished.
            assert [(entry.task.name, entry.earliest_start) for entry in call.calls] == [
                ("t1", 0.0),
                ("t2", 1.0),
            ]

    def test_allocation_completes_when_all_respond(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid_batch(offers("x", "t1", "t2", specialization=1))
        assert not outcomes
        manager.handle_bid_batch(offers("y", "t1", "t2", specialization=5))
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.succeeded
        assert outcome.allocation == {"t1": "x", "t2": "x"}
        assert [(a.recipient, len(a.awards)) for a in award_batches(sent)] == [("x", 2)]

    def test_declines_complete_the_auction_without_allocation(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x"], outcomes.append)
        manager.handle_bid_batch(declines("x", "t1", "t2"))
        assert len(outcomes) == 1
        assert not outcomes[0].succeeded
        assert set(outcomes[0].unallocated) == {"t1", "t2"}
        assert not award_batches(sent)

    def test_mixed_bid_and_decline(self):
        manager, _, _ = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid_batch(
            BidBatch(
                sender="x",
                recipient="initiator",
                workflow_id="w",
                bids=(TaskBidOffer(task_name="t1", specialization=1),),
                declines=(TaskDecline(task_name="t2"),),
            )
        )
        manager.handle_bid_batch(declines("y", "t1", "t2"))
        outcome = outcomes[0]
        assert outcome.allocation == {"t1": "x"}
        assert "t2" in outcome.unallocated
        assert not outcome.succeeded
        assert (outcome.bids_received, outcome.declines_received) == (1, 3)

    def test_deadline_forces_decision(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid_batch(offers("x", "t1", "t2", specialization=1, response_deadline=5.0))
        # y never answers; the deadline of x's bids forces finalisation.
        scheduler.run()
        assert len(outcomes) == 1
        assert outcomes[0].allocation == {"t1": "x", "t2": "x"}
        assert outcomes[0].completed_at == 5.0

    def test_award_routing_information(self):
        manager, _, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid_batch(offers("x", "t1", "t2", specialization=1))
        manager.handle_bid_batch(offers("y", "t1", "t2", specialization=9))
        (batch,) = award_batches(sent)
        awards = {entry.task.name: entry for entry in batch.awards}
        assert awards["t1"].trigger_labels == {"a"}
        assert awards["t1"].output_destinations["b"] == ("x",)
        assert awards["t2"].input_sources == {"b": "x"}
        assert awards["t2"].output_destinations["c"] == ()
        assert awards["t2"].scheduled_start == 1.0

    def test_completed_auction_keeps_no_callback(self):
        manager, _, _ = make_auction()
        outcomes: list[AllocationOutcome] = []

        def on_complete(outcome: AllocationOutcome) -> None:
            outcomes.append(outcome)

        manager.start_auction("w", simple_workflow(), SPEC, ["x"], on_complete)
        released = weakref.ref(on_complete)
        on_complete = None
        manager.handle_bid_batch(offers("x", "t1", "t2", specialization=1))
        assert [outcome.allocation for outcome in outcomes] == [{"t1": "x", "t2": "x"}]
        # In a host the callback refers back to the workflow manager that
        # owns this auction manager; once fired, it is not kept.
        assert released() is None

    def test_task_metadata_orders_earliest_starts(self):
        manager, _, _ = make_auction()
        workflow = Workflow([Task("t1", ["a"], ["b"], duration=10.0), Task("t2", ["b"], ["c"], duration=5.0)])
        metadata = manager.compute_task_metadata(workflow, SPEC)
        assert list(metadata) == ["t1", "t2"]
        assert metadata["t1"].earliest_start == 0.0
        assert metadata["t2"].earliest_start == 10.0
        assert metadata["t1"].producers == ()
        assert metadata["t2"].producers == ("t1",)

    def test_empty_workflow_allocates_trivially(self):
        manager, _, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        empty = Workflow([])
        manager.start_auction("w", empty, Specification(["a"], ["a"]), ["x"], outcomes.append)
        assert len(outcomes) == 1
        assert outcomes[0].succeeded  # nothing to allocate, nothing unallocated
        assert outcomes[0].allocation == {}
        assert sent == []

    def test_requires_participants(self):
        manager, _, _ = make_auction()
        with pytest.raises(ValueError):
            manager.start_auction("w", simple_workflow(), SPEC, [], lambda o: None)

    def test_late_bids_after_finalisation_are_ignored(self):
        manager, _, _ = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x"], outcomes.append)
        manager.handle_bid_batch(offers("x", "t1", "t2", specialization=1))
        manager.handle_bid_batch(offers("x", "t1", specialization=0))
        assert outcomes[0].allocation["t1"] == "x"
        assert outcomes[0].winning_bids["t1"].specialization == 1
        assert outcomes[0].bids_received == 2


class TestBatchedAuctionManager:
    """One message per participant each way, one award message per winner."""

    def run_batched_and_unbatched(self):
        """The same answers, one message per participant or per task."""

        answers = [
            offers("x", "t1", "t2", specialization=1),
            offers("y", "t1", "t2", specialization=5),
            declines("initiator", "t1", "t2"),
        ]
        per_task = [
            BidBatch(
                sender=answer.sender,
                recipient=answer.recipient,
                workflow_id=answer.workflow_id,
                bids=tuple(b for b in answer.bids if b.task_name == task),
                declines=tuple(d for d in answer.declines if d.task_name == task),
            )
            for task in ("t1", "t2")
            for answer in answers
        ]
        results = []
        for messages in (answers, per_task):
            manager, _, sent = make_auction()
            outcomes: list[AllocationOutcome] = []
            manager.start_auction(
                "w", simple_workflow(), SPEC, ["initiator", "x", "y"], outcomes.append
            )
            for message in messages:
                manager.handle_bid_batch(message)
            assert len(outcomes) == 1
            results.append((outcomes[0], sent))
        return results

    def test_one_call_message_per_participant(self):
        manager, _, sent = make_auction()
        manager.start_auction(
            "w", simple_workflow(), SPEC, ["initiator", "x", "y"], lambda o: None
        )
        calls = [m for m in sent if isinstance(m, CallForBidsBatch)]
        assert len(calls) == 3  # one per participant, not per (task, participant)
        assert len(sent) == 3
        assert {c.recipient for c in calls} == {"initiator", "x", "y"}
        for call in calls:
            assert [entry.task.name for entry in call.calls] == ["t1", "t2"]

    def test_batched_outcome_matches_unbatched(self):
        (batched, batched_sent), (unbatched, unbatched_sent) = (
            self.run_batched_and_unbatched()
        )
        assert batched.as_dict() == unbatched.as_dict()
        assert batched.winning_bids == unbatched.winning_bids
        assert (batched.bids_received, batched.declines_received) == (4, 2)
        # Both tasks go to the specialist, in one award message, however
        # the answers were packaged.
        for sent in (batched_sent, unbatched_sent):
            (batch,) = award_batches(sent)
            assert batch.recipient == "x"
            assert [a.task.name for a in batch.awards] == ["t1", "t2"]
        assert award_batches(batched_sent) == award_batches(unbatched_sent)

    def test_award_batch_routing_matches_single_awards(self):
        """An unacknowledged award is resent task by task, with the routing
        of the combined award."""

        manager, scheduler, sent = make_auction(robust=True)
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], lambda o: None)
        manager.handle_bid_batch(offers("x", "t1", "t2", specialization=1))
        manager.handle_bid_batch(offers("y", "t1", "t2", specialization=5))
        while len(award_batches(sent)) < 3:
            assert scheduler.step(), "scheduler drained before the resend"
        combined, *resends = award_batches(sent)
        assert [len(resend.awards) for resend in resends] == [1, 1]
        assert [resend.recipient for resend in resends] == ["x", "x"]
        assert [entry for resend in resends for entry in resend.awards] == list(
            combined.awards
        )
        assert manager.retries == 2

    def test_reaward_after_rejection_stays_per_task(self):
        manager, _, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid_batch(offers("x", "t1", "t2", specialization=1))
        manager.handle_bid_batch(offers("y", "t1", "t2", specialization=5))
        manager.handle_award_rejected(
            AwardRejected(sender="x", recipient="initiator", workflow_id="w",
                          task_name="t1", reason="schedule changed")
        )
        outcome = outcomes[0]
        assert outcome.allocation["t1"] == "y"
        assert outcome.reallocations == 1
        _, reaward = award_batches(sent)
        assert reaward.recipient == "y"
        assert [a.task.name for a in reaward.awards] == ["t1"]
        # The routing follows the new allocation: t1's output goes to x.
        assert reaward.awards[0].output_destinations == {"b": ("x",)}
