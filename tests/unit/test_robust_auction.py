"""Unit tests for the fault-hardened auction protocol.

With ``robust=True`` the auction manager stops assuming the network is
kind: unanswered solicitations are retried with backoff and eventually
treated as implicit declines, awards must be acknowledged, unacknowledged
awards are resent and finally re-auctioned to the runner-up, and
duplicated or stale protocol messages are ignored instead of corrupting
the running allocation.  With ``robust=False`` (the default) not a single
extra message is sent.
"""

from repro.allocation.auction import (
    AWARD_TIMEOUT,
    MAX_SOLICITATIONS,
    SOLICIT_TIMEOUT,
    AllocationOutcome,
    AuctionManager,
)
from repro.allocation.bids import SpecializationPolicy
from repro.core.specification import Specification
from repro.core.tasks import Task
from repro.core.workflow import Workflow
from repro.net.messages import (
    AwardAck,
    AwardBatch,
    AwardRejected,
    BidBatch,
    CallForBidsBatch,
    TaskBidOffer,
    TaskDecline,
)
from repro.sim.events import EventScheduler

SPEC = Specification(["a"], ["c"], name="chain")


def simple_workflow() -> Workflow:
    return Workflow(
        [Task("t1", ["a"], ["b"], duration=1.0), Task("t2", ["b"], ["c"], duration=1.0)]
    )


def make_auction(robust=True, **kwargs):
    scheduler = EventScheduler()
    sent: list = []
    manager = AuctionManager(
        "initiator",
        scheduler,
        sent.append,
        policy=SpecializationPolicy(),
        robust=robust,
        **kwargs,
    )
    return manager, scheduler, sent


def bid(sender: str, *tasks: str, specialization: int = 1) -> BidBatch:
    return BidBatch(
        sender=sender,
        recipient="initiator",
        workflow_id="w",
        bids=tuple(
            TaskBidOffer(task_name=task, specialization=specialization)
            for task in tasks
        ),
    )


def answer(call: CallForBidsBatch, specialization: int = 1, **starts) -> BidBatch:
    """Bid on every task of ``call`` at its earliest start, or at ``starts``."""

    return BidBatch(
        sender=call.recipient,
        recipient="initiator",
        workflow_id=call.workflow_id,
        bids=tuple(
            TaskBidOffer(
                task_name=entry.task.name,
                specialization=specialization,
                proposed_start=starts.get(entry.task.name, entry.earliest_start),
            )
            for entry in call.calls
        ),
    )


def calls(sent, recipient: str) -> list[CallForBidsBatch]:
    return [
        m for m in sent if isinstance(m, CallForBidsBatch) and m.recipient == recipient
    ]


def awards(sent, recipient: str | None = None) -> list[AwardBatch]:
    return [
        m
        for m in sent
        if isinstance(m, AwardBatch) and recipient in (None, m.recipient)
    ]


def ack(sender: str, *tasks: str) -> AwardAck:
    return AwardAck(
        sender=sender, recipient="initiator", workflow_id="w", task_names=tasks
    )


def run_until(scheduler, predicate, limit=10_000.0):
    while not predicate():
        next_time = scheduler.peek_time()
        assert next_time is not None and next_time <= limit, "scheduler drained early"
        scheduler.step()


class TestSolicitationRetry:
    def test_silent_participant_is_resolicited_then_written_off(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid_batch(bid("x", "t1", "t2"))
        # y never answers: the deadline machinery must conclude anyway.
        run_until(scheduler, lambda: outcomes)
        assert outcomes[0].allocation == {"t1": "x", "t2": "x"}
        calls = [m for m in sent if isinstance(m, CallForBidsBatch)]
        # x once; y in every round, each call soliciting both tasks.
        assert [m.recipient for m in calls] == ["x", "y"] + ["y"] * (MAX_SOLICITATIONS - 1)
        assert all([c.task.name for c in m.calls] == ["t1", "t2"] for m in calls)
        assert manager.retries == MAX_SOLICITATIONS - 1
        # Acknowledge so the award cycle ends, then the scheduler must drain.
        manager.handle_award_ack(ack("x", "t1", "t2"))
        scheduler.run()
        assert scheduler.peek_time() is None

    def test_batched_resolicitation(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        run_until(
            scheduler,
            lambda: sum(
                1
                for m in sent
                if isinstance(m, CallForBidsBatch) and m.recipient == "x"
            )
            >= 2,
        )
        assert manager.retries >= 2  # both participants silent in round one

    def test_all_silent_means_no_allocation_but_termination(self):
        manager, scheduler, _ = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        scheduler.run()
        assert len(outcomes) == 1
        assert not outcomes[0].succeeded
        assert set(outcomes[0].unallocated) == {"t1", "t2"}
        assert scheduler.peek_time() is None


class TestAwardAcks:
    def finish_auction(self, manager, with_runner_up=True):
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        # Fewer services = more specialized = preferred by the policy.
        manager.handle_bid_batch(bid("x", "t1", "t2", specialization=1))
        if with_runner_up:
            manager.handle_bid_batch(bid("y", "t1", "t2", specialization=5))
        else:
            manager.handle_bid_batch(
                BidBatch(
                    sender="y", recipient="initiator", workflow_id="w",
                    declines=(TaskDecline("t1", "busy"), TaskDecline("t2", "busy")),
                )
            )
        assert outcomes and outcomes[0].allocation == {"t1": "x", "t2": "x"}
        return outcomes[0]

    def test_prompt_ack_stops_the_chase(self):
        manager, scheduler, sent = make_auction()
        self.finish_auction(manager)
        manager.handle_award_ack(ack("x", "t1", "t2"))
        scheduler.run()
        assert scheduler.peek_time() is None
        assert manager.retries == 0
        assert manager.reauctions == 0

    def test_unacked_award_is_resent(self):
        manager, scheduler, sent = make_auction()
        self.finish_auction(manager)
        (first,) = awards(sent)
        run_until(scheduler, lambda: len(awards(sent)) == 3)
        # One resend per unacknowledged task, each its own message.
        resends = awards(sent)[1:]
        assert [(m.recipient, [a.task.name for a in m.awards]) for m in resends] == [
            ("x", ["t1"]),
            ("x", ["t2"]),
        ]
        # Each resend is an envelope plus its task's share of the award.
        assert sum(m.size_bytes() for m in resends) == first.size_bytes() + 64
        assert manager.retries == 2
        manager.handle_award_ack(ack("x", "t1", "t2"))
        scheduler.run()
        assert scheduler.peek_time() is None

    def test_dead_winner_triggers_reauction_to_runner_up(self):
        manager, scheduler, sent = make_auction()
        outcome = self.finish_auction(manager)
        # x never acks; the runner-up must eventually win both tasks.
        run_until(scheduler, lambda: awards(sent, "y"))
        manager.handle_award_ack(ack("y", "t1", "t2"))
        scheduler.run()
        assert scheduler.peek_time() is None
        assert manager.reauctions == 2
        # Each re-award carries the one task whose winner was struck.
        assert [[a.task.name for a in m.awards] for m in awards(sent, "y")] == [
            ["t1"],
            ["t2"],
        ]
        assert outcome.allocation == {"t1": "y", "t2": "y"}

    def test_no_bidders_left_means_unallocated_but_termination(self):
        manager, scheduler, _ = make_auction()
        outcome = self.finish_auction(manager, with_runner_up=False)
        scheduler.run()
        assert scheduler.peek_time() is None
        assert manager.reauctions == 2
        assert set(outcome.unallocated) == {"t1", "t2"}

    def test_ack_from_superseded_winner_is_ignored(self):
        manager, scheduler, sent = make_auction()
        self.finish_auction(manager)
        run_until(scheduler, lambda: awards(sent, "y"))
        # A very late ack from the presumed-dead original winner must not
        # clear the replacement's pending acknowledgement.
        manager.handle_award_ack(ack("x", "t1", "t2"))
        assert manager._unacked["w"] == {"t1": "y", "t2": "y"}
        manager.handle_award_ack(ack("y", "t1", "t2"))
        scheduler.run()
        assert scheduler.peek_time() is None


class TestAwardTimePlan:
    """Awards carry starts planned when they go out, not when bidding began.

    ``y``'s first call for bids is lost, so the auction settles only after
    the re-solicitation, ``SOLICIT_TIMEOUT`` or more after it started.
    """

    def settle_late(self, **runner_up_starts):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid_batch(answer(calls(sent, "x")[0]))
        run_until(scheduler, lambda: len(calls(sent, "y")) == 2)
        manager.handle_bid_batch(
            answer(calls(sent, "y")[1], specialization=5, **runner_up_starts)
        )
        (outcome,) = outcomes
        assert outcome.completed_at >= SOLICIT_TIMEOUT
        return manager, scheduler, sent, outcome

    def test_starts_follow_the_award_instant_and_the_producers(self):
        _, _, sent, outcome = self.settle_late()
        (batch,) = awards(sent)
        starts = {award.task.name: award.scheduled_start for award in batch.awards}
        # x proposed the earliest starts of the calls, 0 s and 1 s, both long
        # past by the time the awards went out.
        assert all(start >= outcome.completed_at for start in starts.values())
        workflow = simple_workflow()
        for award in batch.awards:
            for label in award.task.inputs:
                producer = workflow.producing_task(label)
                if producer is not None:
                    duration = workflow.task(producer).duration
                    assert award.scheduled_start >= starts[producer] + duration
        assert starts == {"t1": outcome.completed_at, "t2": outcome.completed_at + 1.0}

    def test_a_resent_award_carries_the_planned_start(self):
        manager, scheduler, sent, outcome = self.settle_late()
        run_until(scheduler, lambda: len(awards(sent)) == 3)
        assert scheduler.clock.now() >= outcome.completed_at + AWARD_TIMEOUT
        resends = awards(sent)[1:]
        assert all(len(m.awards) == 1 for m in resends)
        assert {m.awards[0].task.name: m.awards[0].scheduled_start for m in resends} == {
            "t1": outcome.completed_at,
            "t2": outcome.completed_at + 1.0,
        }
        manager.handle_award_ack(ack("x", "t1", "t2"))
        scheduler.run()
        assert scheduler.peek_time() is None

    def test_a_reaward_takes_the_later_of_the_plan_and_the_runner_up(self):
        # y would start t2 only at 500 s, after the plan; t1 whenever asked.
        manager, scheduler, sent, outcome = self.settle_late(t2=500.0)
        # x never acknowledges, so both tasks move to y.
        run_until(scheduler, lambda: len(awards(sent, "y")) == 2)
        reawarded = {m.awards[0].task.name: m.awards[0].scheduled_start for m in awards(sent, "y")}
        assert reawarded == {"t1": outcome.completed_at, "t2": 500.0}
        manager.handle_award_ack(ack("y", "t1", "t2"))
        scheduler.run()
        assert scheduler.peek_time() is None


class TestDuplicateAndStaleMessages:
    def test_duplicate_bids_are_deduplicated(self):
        manager, scheduler, _ = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid_batch(bid("x", "t1"))
        manager.handle_bid_batch(bid("x", "t1"))  # fault-plane duplicate
        assert len(manager._auctions["w"]["t1"].bids) == 1

    def test_stale_rejection_does_not_strike_the_new_winner(self):
        manager, scheduler, sent = make_auction()
        outcomes: list[AllocationOutcome] = []
        manager.start_auction("w", simple_workflow(), SPEC, ["x", "y"], outcomes.append)
        manager.handle_bid_batch(bid("x", "t1", "t2", specialization=1))
        manager.handle_bid_batch(bid("y", "t1", "t2", specialization=5))
        outcome = outcomes[0]
        # x rejects t1; the task moves to y.
        manager.handle_award_rejected(
            AwardRejected(
                sender="x", recipient="initiator", workflow_id="w",
                task_name="t1", reason="no slot",
            )
        )
        assert outcome.allocation["t1"] == "y"
        # The same rejection re-delivered must not strike y's win.
        manager.handle_award_rejected(
            AwardRejected(
                sender="x", recipient="initiator", workflow_id="w",
                task_name="t1", reason="no slot",
            )
        )
        assert outcome.allocation["t1"] == "y"


class TestCleanPathEquivalence:
    def test_robust_clean_run_sends_exactly_the_same_messages(self):
        def clean_run(robust: bool):
            manager, scheduler, sent = make_auction(robust=robust)
            outcomes: list[AllocationOutcome] = []
            manager.start_auction(
                "w", simple_workflow(), SPEC, ["x", "y"], outcomes.append
            )
            manager.handle_bid_batch(bid("x", "t1", "t2", specialization=1))
            manager.handle_bid_batch(bid("y", "t1", "t2", specialization=5))
            if robust:
                manager.handle_award_ack(ack("x", "t1", "t2"))
            scheduler.run()
            assert scheduler.peek_time() is None
            fingerprint = [(type(m).__name__, m.recipient, m.size_bytes()) for m in sent]
            return fingerprint, outcomes[0].allocation

        robust_sent, robust_allocation = clean_run(True)
        plain_sent, plain_allocation = clean_run(False)
        assert robust_sent == plain_sent
        assert robust_allocation == plain_allocation
