"""The Auction Manager: allocating the tasks of a constructed workflow.

The allocation approach follows the paper's Section 3.2 (itself modelled on
CiAN):  the participant that constructed the workflow acts as *auction
manager*.  It computes per-task metadata, solicits bids for every task from
all participants in the community, tracks the incoming firm bids, keeps a
continually re-evaluated *tentative* allocation, and makes the final
decision when either every participant has answered or the response
deadline of the currently best bidder arrives — "the auction manager waits
as long as possible to assign a task to a participant in order to obtain
the best possible bid, but once some participant has been found who can do
a task, the task is guaranteed to be allocated".

Once every task has a winner, the manager plans each task's start from the
instant the awards go out, computes the data-routing information each
participant needs for decentralized execution (where every input comes
from, where every output must go) and sends the awards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from ..core.specification import Specification
from ..core.tasks import Task
from ..core.workflow import Workflow
from ..net.messages import (
    AwardAck,
    AwardBatch,
    AwardRejected,
    BidBatch,
    CallForBidsBatch,
    Message,
    TaskAward,
    TaskCall,
)
from ..sim.events import EventHandle, EventScheduler
from ..sim.randomness import backoff_delay, derive_rng
from .bids import DEFAULT_POLICY, Bid, BidSelectionPolicy, rank_bids

SendFunction = Callable[[Message], None]

#: Robust mode: simulated seconds a solicitation round waits for bids
#: before re-soliciting the silent participants (grown by backoff).
SOLICIT_TIMEOUT = 20.0
#: Robust mode: solicitation rounds before silent participants count as
#: declines.
MAX_SOLICITATIONS = 3
#: Robust mode: simulated seconds an award waits for its ``AwardAck``
#: before it is resent (grown by backoff).
AWARD_TIMEOUT = 10.0
#: Robust mode: unacknowledged award rounds before the winner is struck
#: and the task re-auctioned.
MAX_AWARD_ATTEMPTS = 3


class TaskMetadata(NamedTuple):
    """What the auction manager computes for one task before soliciting bids."""

    #: Critical-path start over declared durations, from the auction's start.
    earliest_start: float
    #: The tasks producing this task's inputs (earlier in task order).
    producers: tuple[str, ...]


@dataclass
class TaskAuction:
    """State of the auction for a single task."""

    task: Task
    earliest_start: float
    expected_responders: frozenset[str]
    producers: tuple[str, ...]
    bids: list[Bid] = field(default_factory=list)
    declines: set[str] = field(default_factory=set)
    tentative: Bid | None = None
    winner: Bid | None = None
    #: Planned when the awards go out; every award of the task (first,
    #: resend, re-award) carries it.
    scheduled_start: float = 0.0
    finalized: bool = False
    deadline_event: EventHandle | None = None

    @property
    def responders(self) -> set[str]:
        return {bid.bidder for bid in self.bids} | self.declines

    def all_responded(self) -> bool:
        return self.expected_responders <= self.responders


@dataclass
class AllocationOutcome:
    """Result of allocating one workflow.

    ``allocation`` maps every allocated task to the winning host;
    ``unallocated`` maps tasks that could not be allocated to the reason.
    The outcome is considered successful only when every task found a host.
    """

    workflow_id: str
    allocation: dict[str, str] = field(default_factory=dict)
    winning_bids: dict[str, Bid] = field(default_factory=dict)
    unallocated: dict[str, str] = field(default_factory=dict)
    bids_received: int = 0
    declines_received: int = 0
    reallocations: int = 0
    completed_at: float = 0.0

    @property
    def succeeded(self) -> bool:
        # An empty workflow (the goals were already satisfied) allocates
        # trivially; failure means at least one task found no host.
        return not self.unallocated

    def as_dict(self) -> dict[str, object]:
        return {
            "workflow_id": self.workflow_id,
            "allocation": dict(self.allocation),
            "unallocated": dict(self.unallocated),
            "bids_received": self.bids_received,
            "declines_received": self.declines_received,
            "reallocations": self.reallocations,
            "completed_at": self.completed_at,
        }


class AuctionManager:
    """Runs task auctions for the workflows constructed on one host.

    Everything the manager says to one participant about a workflow travels
    in one message: a :class:`~repro.net.messages.CallForBidsBatch` with
    every task, answered by one :class:`~repro.net.messages.BidBatch`, and
    one :class:`~repro.net.messages.AwardBatch` per winning host, so a
    workflow costs O(participants) messages.

    Parameters
    ----------
    host_id:
        The initiating host (auctioneer).
    scheduler:
        Shared event scheduler, used for deadline timers and time stamps.
    send:
        Callback handing outgoing messages to the communications layer.
    policy:
        Bid selection policy; defaults to the paper's specialization-first
        rule.
    """

    def __init__(
        self,
        host_id: str,
        scheduler: EventScheduler,
        send: SendFunction,
        policy: BidSelectionPolicy = DEFAULT_POLICY,
        robust: bool = False,
        durability=None,
    ) -> None:
        self.host_id = host_id
        self.scheduler = scheduler
        self._send = send
        self.policy = policy
        #: Fault hardening (``fault_injection``): bounded retry+backoff for
        #: unanswered solicitations (silent participants become implicit
        #: declines after ``MAX_SOLICITATIONS`` rounds), award acks with
        #: resends, and re-auction when a winner never acknowledges.  Off by
        #: default: the clean protocol sends not a single extra message.
        self.robust = robust
        #: The stream of this host's retry jitter (robust mode only: a clean
        #: run arms no retry timers and stays byte-identical).
        self._jitter_rng = (
            derive_rng(0, "retry-jitter", host_id, "auction") if robust else None
        )
        #: Optional durable write-ahead facade (the initiator's journal):
        #: auction outcomes are journaled before awards go on the wire, so a
        #: restarted initiator resumes from its recorded allocation instead
        #: of redoing (or worse, half-redoing) the auction.
        self.durability = durability
        #: Messages re-sent because the first copy went unanswered.
        self.retries = 0
        #: Tasks re-auctioned because their winner never acknowledged.
        self.reauctions = 0
        self._auctions: dict[str, dict[str, TaskAuction]] = {}
        self._outcomes: dict[str, AllocationOutcome] = {}
        self._callbacks: dict[str, Callable[[AllocationOutcome], None]] = {}
        self._workflows: dict[str, Workflow] = {}
        self._specifications: dict[str, Specification] = {}
        self._solicit_timers: dict[str, EventHandle] = {}
        #: workflow -> task -> winner still owing an :class:`AwardAck`.
        self._unacked: dict[str, dict[str, str]] = {}
        self._award_timers: dict[str, EventHandle] = {}

    # -- starting an auction -------------------------------------------------
    def start_auction(
        self,
        workflow_id: str,
        workflow: Workflow,
        specification: Specification,
        participants: Iterable[str],
        on_complete: Callable[[AllocationOutcome], None],
    ) -> None:
        """Begin soliciting bids for every task of ``workflow``."""

        participant_set = frozenset(participants)
        if not participant_set:
            raise ValueError("an auction needs at least one participant")
        self._workflows[workflow_id] = workflow
        self._specifications[workflow_id] = specification
        self._callbacks[workflow_id] = on_complete
        self._outcomes[workflow_id] = AllocationOutcome(workflow_id=workflow_id)

        auctions = {
            task_name: TaskAuction(
                task=workflow.task(task_name),
                earliest_start=metadata.earliest_start,
                expected_responders=participant_set,
                producers=metadata.producers,
            )
            for task_name, metadata in self.compute_task_metadata(
                workflow, specification
            ).items()
        }
        self._auctions[workflow_id] = auctions

        if not auctions:
            # An empty workflow (goals already satisfied) allocates trivially.
            self._complete(workflow_id)
            return

        self._call_for_bids(workflow_id, sorted(participant_set))
        if self.robust:
            self._arm_solicit_timer(workflow_id, attempt=1)

    def _call_for_bids(self, workflow_id: str, participants: Iterable[str]) -> None:
        """Solicit every task of the workflow from each participant."""

        calls = tuple(
            TaskCall(task=auction.task, earliest_start=auction.earliest_start)
            for auction in self._auctions[workflow_id].values()
        )
        for participant in participants:
            self._send(
                CallForBidsBatch(
                    sender=self.host_id,
                    recipient=participant,
                    workflow_id=workflow_id,
                    calls=calls,
                )
            )

    def compute_task_metadata(
        self, workflow: Workflow, specification: Specification
    ) -> dict[str, TaskMetadata]:
        """Earliest feasible start and producer tasks per task, in task order.

        A task can start once every producer of its inputs could have
        finished (critical path over declared durations); trigger labels
        are available at time zero.  This is the "metadata for each task
        used in allocating and executing the workflow" the auction manager
        computes before soliciting bids; the producers recorded here also
        drive the start plan made when the awards go out.
        """

        now = self.scheduler.clock.now()
        completion: dict[str, float] = {}
        metadata: dict[str, TaskMetadata] = {}
        for task_name in workflow.task_order():
            task = workflow.task(task_name)
            start = now
            producers: list[str] = []
            for label in task.inputs:
                producer = workflow.producing_task(label)
                if producer is not None:
                    producers.append(producer)
                    start = max(start, completion.get(producer, now))
            metadata[task_name] = TaskMetadata(start, tuple(producers))
            completion[task_name] = start + task.duration
        return metadata

    # -- incoming auction traffic ----------------------------------------------------
    def handle_bid_batch(self, message: BidBatch) -> None:
        """Record a participant's answer: its firm bids, then its declines.

        Each bid re-evaluates its task's tentative allocation, and a task
        whose every participant has answered is finalized on the spot.
        """

        for offer in message.bids:
            self._apply_bid(
                message.workflow_id,
                Bid(
                    bidder=message.sender,
                    task_name=offer.task_name,
                    specialization=offer.specialization,
                    proposed_start=offer.proposed_start,
                    travel_time=offer.travel_time,
                    response_deadline=offer.response_deadline,
                ),
            )
        for decline in message.declines:
            self._apply_decline(message.workflow_id, decline.task_name, message.sender)

    def _apply_bid(self, workflow_id: str, bid: Bid) -> None:
        auction = self._find_auction(workflow_id, bid.task_name)
        if auction is None or auction.finalized:
            return
        if any(existing.bidder == bid.bidder for existing in auction.bids):
            # Duplicate answer — a re-solicited participant whose first bid
            # was merely delayed, or a fault-plane duplication.  The first
            # firm bid stands; a bid is a promise, not an update.
            return
        outcome = self._outcomes[workflow_id]
        outcome.bids_received += 1
        auction.bids.append(bid)
        self._reevaluate_tentative(workflow_id, auction)
        if auction.all_responded():
            self._finalize(workflow_id, auction)

    def _apply_decline(self, workflow_id: str, task_name: str, sender: str) -> None:
        auction = self._find_auction(workflow_id, task_name)
        if auction is None or auction.finalized:
            return
        outcome = self._outcomes[workflow_id]
        outcome.declines_received += 1
        auction.declines.add(sender)
        if auction.all_responded():
            self._finalize(workflow_id, auction)

    def handle_award_rejected(self, message: AwardRejected) -> None:
        """Re-allocate a task whose winner could no longer honour its bid."""

        workflow_id = message.workflow_id
        auction = self._find_auction(workflow_id, message.task_name)
        if auction is None:
            return
        outcome = self._outcomes[workflow_id]
        if (
            message.task_name in outcome.allocation
            and outcome.allocation[message.task_name] != message.sender
        ):
            # Stale or duplicated rejection: the task already moved on to a
            # different winner (fault-plane re-delivery, or a rejection that
            # crossed a re-award in flight).  Applying it would strike the
            # *new* winner's allocation for the old winner's sins.
            return
        self._clear_unacked(workflow_id, message.task_name, message.sender)
        self._reassign_after_loss(
            workflow_id,
            message.task_name,
            message.sender,
            f"winner {message.sender!r} rejected the award and no other bids remain",
        )

    def _reassign_after_loss(
        self, workflow_id: str, task_name: str, lost_host: str, reason: str
    ) -> None:
        """Strike ``lost_host``'s bids for a task and award the next-best bid.

        Shared by the award-rejected path and the robust ack-timeout path
        (a winner presumed dead): both remove the lost winner from the
        running and either re-award or record the task as unallocated.
        """

        auction = self._find_auction(workflow_id, task_name)
        if auction is None:
            return
        outcome = self._outcomes[workflow_id]
        remaining = [b for b in auction.bids if b.bidder != lost_host]
        auction.bids = remaining
        outcome.reallocations += 1
        if remaining:
            auction.winner = rank_bids(remaining, self.policy)[0]
            outcome.allocation[task_name] = auction.winner.bidder
            outcome.winning_bids[task_name] = auction.winner
            auction.scheduled_start = max(
                auction.scheduled_start, auction.winner.proposed_start
            )
            if self.durability is not None:
                # Write-ahead again: the re-award supersedes the journaled
                # outcome before the replacement winner hears about it.
                self.durability.allocation_updated(workflow_id, outcome.allocation)
            self._send_awards(workflow_id, (auction,))
            if self.robust:
                self._expect_ack(workflow_id, task_name, auction.winner.bidder)
        else:
            auction.winner = None
            outcome.allocation.pop(task_name, None)
            outcome.winning_bids.pop(task_name, None)
            outcome.unallocated[task_name] = reason
            if self.durability is not None:
                self.durability.allocation_updated(workflow_id, outcome.allocation)

    # -- tentative allocation and deadlines --------------------------------------------
    def _reevaluate_tentative(self, workflow_id: str, auction: TaskAuction) -> None:
        best = rank_bids(auction.bids, self.policy)[0]
        if auction.tentative is not None and auction.tentative == best:
            return
        auction.tentative = best
        if auction.deadline_event is not None:
            auction.deadline_event.cancel()
            auction.deadline_event = None
        if best.response_deadline != float("inf"):
            delay = max(0.0, best.response_deadline - self.scheduler.clock.now())
            auction.deadline_event = self.scheduler.schedule_in(
                delay,
                lambda: self._finalize(workflow_id, auction),
                description=f"bid-deadline {auction.task.name}",
            )

    def _finalize(self, workflow_id: str, auction: TaskAuction) -> None:
        if auction.finalized:
            return
        auction.finalized = True
        if auction.deadline_event is not None:
            auction.deadline_event.cancel()
            auction.deadline_event = None
        outcome = self._outcomes[workflow_id]
        if auction.bids:
            auction.winner = rank_bids(auction.bids, self.policy)[0]
            outcome.allocation[auction.task.name] = auction.winner.bidder
            outcome.winning_bids[auction.task.name] = auction.winner
        else:
            outcome.unallocated[auction.task.name] = "no participant submitted a bid"
        auctions = self._auctions[workflow_id]
        if all(a.finalized for a in auctions.values()):
            self._complete(workflow_id)

    # -- completion -----------------------------------------------------------------------
    def _complete(self, workflow_id: str) -> None:
        outcome = self._outcomes[workflow_id]
        outcome.completed_at = self.scheduler.clock.now()
        self._cancel_timer(self._solicit_timers, workflow_id)
        auctions = self._auctions[workflow_id]
        if self.durability is not None:
            # Write-ahead: the outcome is durable before any award is sent,
            # so an initiator crashing mid-award-fanout restarts with the
            # allocation it was in the middle of announcing.
            self.durability.auction_completed(
                workflow_id, outcome.allocation, tuple(sorted(outcome.unallocated))
            )
        if outcome.succeeded or outcome.allocation:
            self._plan_starts(auctions)
            self._send_awards(workflow_id, auctions.values())
            if self.robust:
                for auction in auctions.values():
                    if auction.winner is not None:
                        self._expect_ack(
                            workflow_id, auction.task.name, auction.winner.bidder
                        )
        # Popped, not read: a fired callback refers back to the workflow
        # manager that owns this auction manager.
        callback = self._callbacks.pop(workflow_id, None)
        if callback is not None:
            callback(outcome)

    def _plan_starts(self, auctions: dict[str, TaskAuction]) -> None:
        """Plan each task's scheduled start as the awards go out.

        Walking the tasks in task order, a task starts at the latest of its
        winner's proposed start, the award instant, and each producer's
        planned start plus its declared duration.  The earliest starts of
        the calls for bids counted from the auction's start; when the
        auction settled late (a re-solicited participant), a plan that
        ignored the delay would start a consumer's input window before its
        producer could run.
        """

        now = self.scheduler.clock.now()
        for auction in auctions.values():
            start = now
            if auction.winner is not None:
                start = max(start, auction.winner.proposed_start)
            for name in auction.producers:
                producer = auctions[name]
                start = max(start, producer.scheduled_start + producer.task.duration)
            auction.scheduled_start = start

    # -- fault hardening: retries, acks, re-auctions ---------------------------------
    @staticmethod
    def _cancel_timer(timers: dict[str, EventHandle], workflow_id: str) -> None:
        handle = timers.pop(workflow_id, None)
        if handle is not None:
            handle.cancel()

    def _arm_solicit_timer(self, workflow_id: str, attempt: int) -> None:
        self._cancel_timer(self._solicit_timers, workflow_id)
        self._solicit_timers[workflow_id] = self.scheduler.schedule_in(
            backoff_delay(SOLICIT_TIMEOUT, attempt, self._jitter_rng),
            lambda: self._solicit_deadline(workflow_id, attempt),
            description=f"solicit-timeout {workflow_id}",
        )

    def _solicit_deadline(self, workflow_id: str, attempt: int) -> None:
        """A solicitation round expired: re-solicit the silent, or give up.

        Up to ``MAX_SOLICITATIONS`` rounds, participants that have not
        answered every open task are re-solicited (with exponential
        backoff, in case the silence was congestion rather than death).
        After the final round the silent are treated as implicit declines —
        the guarantee the paper's explicit-decline protocol gave the
        auctioneer is thereby restored on a lossy medium.
        """

        self._solicit_timers.pop(workflow_id, None)
        auctions = self._auctions.get(workflow_id)
        if auctions is None:
            return
        open_auctions = [a for a in auctions.values() if not a.finalized]
        if not open_auctions:
            return
        missing = sorted(
            {
                participant
                for auction in open_auctions
                for participant in auction.expected_responders - auction.responders
            }
        )
        if not missing:
            return
        if attempt >= MAX_SOLICITATIONS:
            for auction in list(open_auctions):
                for participant in auction.expected_responders - auction.responders:
                    auction.declines.add(participant)
                if not auction.finalized and auction.all_responded():
                    self._finalize(workflow_id, auction)
            return
        self.retries += len(missing)
        self._call_for_bids(workflow_id, missing)
        self._arm_solicit_timer(workflow_id, attempt + 1)

    def _expect_ack(self, workflow_id: str, task_name: str, winner: str) -> None:
        self._unacked.setdefault(workflow_id, {})[task_name] = winner
        if workflow_id not in self._award_timers:
            self._arm_award_timer(workflow_id, attempt=1)

    def _arm_award_timer(self, workflow_id: str, attempt: int) -> None:
        self._cancel_timer(self._award_timers, workflow_id)
        self._award_timers[workflow_id] = self.scheduler.schedule_in(
            backoff_delay(AWARD_TIMEOUT, attempt, self._jitter_rng),
            lambda: self._award_deadline(workflow_id, attempt),
            description=f"award-ack-timeout {workflow_id}",
        )

    def handle_award_ack(self, message: AwardAck) -> None:
        """A winner confirmed its awards; stop chasing those tasks."""

        for task_name in message.task_names:
            self._clear_unacked(message.workflow_id, task_name, message.sender)

    def _clear_unacked(self, workflow_id: str, task_name: str, host: str) -> None:
        unacked = self._unacked.get(workflow_id)
        if unacked is None or unacked.get(task_name) != host:
            # Unknown, already-cleared, or superseded (the task has been
            # re-awarded to a different host since): ignore.
            return
        del unacked[task_name]
        if not unacked:
            del self._unacked[workflow_id]
            self._cancel_timer(self._award_timers, workflow_id)

    def _award_deadline(self, workflow_id: str, attempt: int) -> None:
        """Unacknowledged awards: resend, then presume the winner dead.

        Each unacknowledged task is resent on its own, as a one-entry
        :class:`~repro.net.messages.AwardBatch` (the message a re-award
        after a rejection sends).  After ``MAX_AWARD_ATTEMPTS`` silent
        rounds the winner's bids are struck and the task re-auctioned among
        the remaining bidders; the ack cycle restarts for the replacement
        winner.
        """

        self._award_timers.pop(workflow_id, None)
        unacked = self._unacked.get(workflow_id)
        if not unacked:
            return
        if attempt >= MAX_AWARD_ATTEMPTS:
            for task_name, winner in sorted(unacked.items()):
                self._clear_unacked(workflow_id, task_name, winner)
                self.reauctions += 1
                self._reassign_after_loss(
                    workflow_id,
                    task_name,
                    winner,
                    f"winner {winner!r} never acknowledged the award "
                    "and no other bids remain",
                )
            # _reassign_after_loss re-arms the timer for replacement winners.
            return
        for task_name in sorted(unacked):
            auction = self._find_auction(workflow_id, task_name)
            if auction is None or auction.winner is None:
                continue
            self.retries += 1
            self._send_awards(workflow_id, (auction,))
        self._arm_award_timer(workflow_id, attempt + 1)

    def _send_awards(
        self, workflow_id: str, auctions: Iterable[TaskAuction]
    ) -> None:
        """One award message per winning host, its tasks in ``auctions`` order.

        A completed auction passes every task in task order, so each winner
        converts its wins into commitments in task order; a re-award or a
        resend passes the one task concerned.
        """

        grouped: dict[str, list[TaskAward]] = {}
        for auction in auctions:
            if auction.winner is None:
                continue
            grouped.setdefault(auction.winner.bidder, []).append(
                self._award_entry(workflow_id, auction)
            )
        for winner, awards in grouped.items():
            self._send(
                AwardBatch(
                    sender=self.host_id,
                    recipient=winner,
                    workflow_id=workflow_id,
                    awards=tuple(awards),
                )
            )

    def _award_entry(self, workflow_id: str, auction: TaskAuction) -> TaskAward:
        workflow = self._workflows[workflow_id]
        specification = self._specifications[workflow_id]
        outcome = self._outcomes[workflow_id]
        task = auction.task
        input_sources, trigger_labels = self._input_routing(
            workflow, specification, outcome, task
        )
        return TaskAward(
            task=task,
            scheduled_start=auction.scheduled_start,
            input_sources=input_sources,
            output_destinations=self._output_routing(workflow, outcome, task),
            trigger_labels=trigger_labels,
        )

    def _input_routing(
        self,
        workflow: Workflow,
        specification: Specification,
        outcome: AllocationOutcome,
        task: Task,
    ) -> tuple[dict[str, str], frozenset[str]]:
        sources: dict[str, str] = {}
        triggers: set[str] = set()
        for label in task.inputs:
            producer = workflow.producing_task(label)
            if producer is None or label in specification.triggers:
                # Source labels are triggering conditions: available from the
                # outset, no network transfer required.
                triggers.add(label)
            else:
                sources[label] = outcome.allocation.get(producer, self.host_id)
        return sources, frozenset(triggers)

    def _output_routing(
        self, workflow: Workflow, outcome: AllocationOutcome, task: Task
    ) -> dict[str, tuple[str, ...]]:
        destinations: dict[str, tuple[str, ...]] = {}
        for label in task.outputs:
            consumer_hosts = []
            for consumer in sorted(workflow.consumers_of(label)):
                host = outcome.allocation.get(consumer)
                if host is not None:
                    consumer_hosts.append(host)
            destinations[label] = tuple(dict.fromkeys(consumer_hosts))
        return destinations

    # -- queries -------------------------------------------------------------------------
    def _find_auction(self, workflow_id: str, task_name: str) -> TaskAuction | None:
        return self._auctions.get(workflow_id, {}).get(task_name)

    def __repr__(self) -> str:
        return f"AuctionManager(host={self.host_id!r}, workflows={len(self._auctions)})"
