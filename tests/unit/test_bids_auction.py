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
    AwardMessage,
    AwardRejected,
    BidBatch,
    BidDeclined,
    BidMessage,
    CallForBids,
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

    def test_bid_from_message(self):
        message = BidMessage(
            sender="chef", recipient="mgr", workflow_id="w", task_name="cook",
            specialization=2, proposed_start=7.0, travel_time=1.0, response_deadline=99.0,
        )
        converted = Bid.from_message(message)
        assert converted.bidder == "chef"
        assert converted.proposed_start == 7.0
        assert converted.response_deadline == 99.0


def make_auction(policy=None, batch_auctions=False):
    # These tests exercise the classic per-(task, participant) protocol
    # directly; the batched protocol has its own class below.
    scheduler = EventScheduler()
    sent: list = []
    manager = AuctionManager(
        "initiator",
        scheduler,
        sent.append,
        policy=policy or SpecializationPolicy(),
        batch_auctions=batch_auctions,
    )
    return manager, scheduler, sent


def simple_workflow() -> Workflow:
    return Workflow([Task("t1", ["a"], ["b"], duration=1.0), Task("t2", ["b"], ["c"], duration=1.0)])


SPEC = Specification(["a"], ["c"])


class TestAuctionManager:
    def test_calls_for_bids_sent_to_every_participant(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["initiator", "x", "y"], outcomes.append)
        calls = [m for m in sent if isinstance(m, CallForBids)]
        assert len(calls) == 6  # 2 tasks x 3 participants
        assert {c.recipient for c in calls} == {"initiator", "x", "y"}

    def test_allocation_completes_when_all_respond(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        for task in ("t1", "t2"):
            manager.handle_bid(BidMessage(sender="x", recipient="initiator", workflow_id="w",
                                          task_name=task, specialization=1, proposed_start=0.0))
            manager.handle_bid(BidMessage(sender="y", recipient="initiator", workflow_id="w",
                                          task_name=task, specialization=5, proposed_start=0.0))
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.succeeded
        assert outcome.allocation == {"t1": "x", "t2": "x"}
        awards = [m for m in sent if isinstance(m, AwardMessage)]
        assert len(awards) == 2
        assert all(a.recipient == "x" for a in awards)

    def test_declines_complete_the_auction_without_allocation(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x"], outcomes.append)
        for task in ("t1", "t2"):
            manager.handle_decline(BidDeclined(sender="x", recipient="initiator",
                                               workflow_id="w", task_name=task, reason="busy"))
        assert len(outcomes) == 1
        assert not outcomes[0].succeeded
        assert set(outcomes[0].unallocated) == {"t1", "t2"}

    def test_mixed_bid_and_decline(self):
        manager, _, _ = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid(BidMessage(sender="x", recipient="initiator", workflow_id="w",
                                      task_name="t1", specialization=1))
        manager.handle_decline(BidDeclined(sender="y", recipient="initiator", workflow_id="w", task_name="t1"))
        manager.handle_decline(BidDeclined(sender="x", recipient="initiator", workflow_id="w", task_name="t2"))
        manager.handle_decline(BidDeclined(sender="y", recipient="initiator", workflow_id="w", task_name="t2"))
        outcome = outcomes[0]
        assert outcome.allocation == {"t1": "x"}
        assert "t2" in outcome.unallocated
        assert not outcome.succeeded

    def test_deadline_forces_decision(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        for task in ("t1", "t2"):
            manager.handle_bid(BidMessage(sender="x", recipient="initiator", workflow_id="w",
                                          task_name=task, specialization=1, response_deadline=5.0))
        # y never answers; the deadline of x's bids forces finalisation.
        scheduler.run()
        assert len(outcomes) == 1
        assert outcomes[0].allocation == {"t1": "x", "t2": "x"}

    def test_award_routing_information(self):
        manager, _, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        for task in ("t1", "t2"):
            manager.handle_bid(BidMessage(sender="x", recipient="initiator", workflow_id="w",
                                          task_name="t1" if task == "t1" else task,
                                          specialization=1))
            manager.handle_bid(BidMessage(sender="y", recipient="initiator", workflow_id="w",
                                          task_name=task, specialization=9))
        awards = {m.task.name: m for m in sent if isinstance(m, AwardMessage)}
        assert awards["t1"].trigger_labels == {"a"}
        assert awards["t1"].output_destinations["b"] == ("x",)
        assert awards["t2"].input_sources == {"b": "x"}
        assert awards["t2"].output_destinations["c"] == ()

    def test_completed_auction_keeps_no_callback(self):
        manager, _, _ = make_auction()
        outcomes: list[AllocationOutcome] = []

        def on_complete(outcome: AllocationOutcome) -> None:
            outcomes.append(outcome)

        manager.start_auction("w", simple_workflow(), SPEC, ["x"], on_complete)
        released = weakref.ref(on_complete)
        on_complete = None
        for task in ("t1", "t2"):
            manager.handle_bid(BidMessage(sender="x", recipient="initiator", workflow_id="w",
                                          task_name=task, specialization=1))
        assert [outcome.allocation for outcome in outcomes] == [{"t1": "x", "t2": "x"}]
        # In a host the callback refers back to the workflow manager that
        # owns this auction manager; once fired, it is not kept.
        assert released() is None

    def test_task_metadata_orders_earliest_starts(self):
        manager, _, _ = make_auction()
        workflow = Workflow([Task("t1", ["a"], ["b"], duration=10.0), Task("t2", ["b"], ["c"], duration=5.0)])
        starts = manager.compute_task_metadata(workflow, SPEC)
        assert starts["t1"] == 0.0
        assert starts["t2"] == 10.0

    def test_empty_workflow_allocates_trivially(self):
        manager, _, _ = make_auction()
        outcomes: list[AllocationOutcome] = []
        empty = Workflow([])
        manager.start_auction("w", empty, Specification(["a"], ["a"]), ["x"], outcomes.append)
        assert len(outcomes) == 1
        assert outcomes[0].succeeded  # nothing to allocate, nothing unallocated
        assert outcomes[0].allocation == {}

    def test_requires_participants(self):
        manager, _, _ = make_auction()
        with pytest.raises(ValueError):
            manager.start_auction("w", simple_workflow(), SPEC, [], lambda o: None)

    def test_late_bids_after_finalisation_are_ignored(self):
        manager, _, _ = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x"], outcomes.append)
        for task in ("t1", "t2"):
            manager.handle_bid(BidMessage(sender="x", recipient="initiator", workflow_id="w",
                                          task_name=task, specialization=1))
        manager.handle_bid(BidMessage(sender="x", recipient="initiator", workflow_id="w",
                                      task_name="t1", specialization=0))
        assert outcomes[0].allocation["t1"] == "x"
        assert outcomes[0].bids_received == 2


class TestBatchedAuctionManager:
    """The batched protocol: O(participants) messages, identical outcomes."""

    def run_batched_and_unbatched(self):
        results = []
        for batched in (True, False):
            manager, _, sent = make_auction(batch_auctions=batched)
            outcomes: list[AllocationOutcome] = []
            manager.start_auction(
                "w", simple_workflow(), SPEC, ["initiator", "x", "y"], outcomes.append
            )
            if batched:
                for sender, specialization in (("x", 1), ("y", 5)):
                    manager.handle_bid_batch(
                        BidBatch(
                            sender=sender,
                            recipient="initiator",
                            workflow_id="w",
                            bids=tuple(
                                TaskBidOffer(task_name=t, specialization=specialization)
                                for t in ("t1", "t2")
                            ),
                        )
                    )
                manager.handle_bid_batch(
                    BidBatch(
                        sender="initiator",
                        recipient="initiator",
                        workflow_id="w",
                        declines=tuple(
                            TaskDecline(task_name=t, reason="busy") for t in ("t1", "t2")
                        ),
                    )
                )
            else:
                for task in ("t1", "t2"):
                    manager.handle_bid(BidMessage(sender="x", recipient="initiator",
                                                  workflow_id="w", task_name=task,
                                                  specialization=1))
                    manager.handle_bid(BidMessage(sender="y", recipient="initiator",
                                                  workflow_id="w", task_name=task,
                                                  specialization=5))
                    manager.handle_decline(BidDeclined(sender="initiator",
                                                       recipient="initiator",
                                                       workflow_id="w", task_name=task,
                                                       reason="busy"))
            assert len(outcomes) == 1
            results.append((outcomes[0], sent))
        return results

    def test_one_call_message_per_participant(self):
        manager, _, sent = make_auction(batch_auctions=True)
        manager.start_auction(
            "w", simple_workflow(), SPEC, ["initiator", "x", "y"], lambda o: None
        )
        calls = [m for m in sent if isinstance(m, CallForBidsBatch)]
        assert len(calls) == 3  # one per participant, not per (task, participant)
        assert not [m for m in sent if isinstance(m, CallForBids)]
        assert {c.recipient for c in calls} == {"initiator", "x", "y"}
        for call in calls:
            assert [entry.task.name for entry in call.calls] == ["t1", "t2"]

    def test_batched_outcome_matches_unbatched(self):
        (batched, batched_sent), (unbatched, unbatched_sent) = (
            self.run_batched_and_unbatched()
        )
        batched_dict = batched.as_dict()
        unbatched_dict = unbatched.as_dict()
        assert batched_dict == unbatched_dict
        assert batched.winning_bids == unbatched.winning_bids
        # Both tasks go to the specialist, in one combined award message.
        award_batches = [m for m in batched_sent if isinstance(m, AwardBatch)]
        assert len(award_batches) == 1
        assert award_batches[0].recipient == "x"
        assert [a.task.name for a in award_batches[0].awards] == ["t1", "t2"]
        assert len([m for m in unbatched_sent if isinstance(m, AwardMessage)]) == 2

    def test_award_batch_routing_matches_single_awards(self):
        (_, batched_sent), (_, unbatched_sent) = self.run_batched_and_unbatched()
        batch = next(m for m in batched_sent if isinstance(m, AwardBatch))
        singles = {m.task.name: m for m in unbatched_sent
                   if isinstance(m, AwardMessage)}
        for entry in batch.awards:
            single = singles[entry.task.name]
            assert entry.scheduled_start == single.scheduled_start
            assert entry.input_sources == single.input_sources
            assert entry.output_destinations == single.output_destinations
            assert entry.trigger_labels == single.trigger_labels

    def test_reaward_after_rejection_stays_per_task(self):
        manager, _, sent = make_auction(batch_auctions=True)
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        for sender, specialization in (("x", 1), ("y", 5)):
            manager.handle_bid_batch(
                BidBatch(
                    sender=sender,
                    recipient="initiator",
                    workflow_id="w",
                    bids=tuple(
                        TaskBidOffer(task_name=t, specialization=specialization)
                        for t in ("t1", "t2")
                    ),
                )
            )
        manager.handle_award_rejected(
            AwardRejected(sender="x", recipient="initiator", workflow_id="w",
                          task_name="t1", reason="schedule changed")
        )
        outcome = outcomes[0]
        assert outcome.allocation["t1"] == "y"
        assert outcome.reallocations == 1
        reawards = [m for m in sent if isinstance(m, AwardMessage)]
        assert len(reawards) == 1 and reawards[0].recipient == "y"
