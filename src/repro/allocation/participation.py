"""The Auction Participation Manager: bidding on behalf of one host.

This component "encapsulates the complex interactions and state tracking
needed for the host to bid in task auctions during the allocation phase"
(paper, Section 4.2).  For every incoming call for bids it checks, in the
order given by the paper's service-availability conditions, whether

1. the host is *capable* of performing the service (Service Manager),
2. the host has *time* available and
3. can *travel* to the required location in time (Schedule Manager),
4. can gather inputs / distribute outputs in a timely manner (always true
   while the community is connected; the communications layer raises when
   it is not), and
5. the host is *willing* according to its preferences.

If all conditions hold it submits a firm bid; otherwise it answers with an
explicit decline so the auction manager does not have to wait for a
timeout.  When an award arrives, the manager converts it into a commitment,
stores it with the Schedule Manager, and hands it to the Execution Manager
to monitor.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.errors import ScheduleConflictError
from ..core.tasks import Task
from ..execution.engine import ExecutionManager
from ..execution.services import ServiceManager
from ..net.messages import (
    AwardBatch,
    AwardRejected,
    BidBatch,
    CallForBidsBatch,
    TaskAward,
    TaskBidOffer,
    TaskDecline,
)
from ..scheduling.commitments import Commitment
from ..scheduling.schedule import ScheduleManager
from ..sim.clock import Clock


class AuctionParticipationManager:
    """Evaluates calls for bids and accepts awards for one host."""

    def __init__(
        self,
        host_id: str,
        clock: Clock,
        services: ServiceManager,
        schedule: ScheduleManager,
        execution: ExecutionManager,
    ) -> None:
        self.host_id = host_id
        self.clock = clock
        self.services = services
        self.schedule = schedule
        self.execution = execution
        #: Awards already converted to commitments, keyed by
        #: ``(workflow_id, task_name)``.  A re-delivered award (fault-plane
        #: duplication, or the auction manager re-sending after a lost ack)
        #: returns the existing commitment instead of double-booking the
        #: schedule through the conflict-fallback slot search.
        self._accepted: dict[tuple[str, str], Commitment] = {}

    # -- bidding ----------------------------------------------------------------
    def _evaluate_task(
        self, task: Task, earliest_start: float, deadline: float
    ) -> TaskBidOffer | TaskDecline:
        """Apply the paper's service-availability conditions to one task.

        Bids reserve no schedule slot, so each task of a call is judged on
        its own, against the schedule as it stands.
        """

        # Condition 1: capability.
        if not self.services.provides(task.service_type):
            return TaskDecline(task.name, f"no service of type {task.service_type!r}")

        # Conditions 2, 3, and 5: time, travel, willingness.  Use the service's
        # duration estimate when the task itself does not declare one.
        duration = max(task.duration, self.services.expected_duration(task))
        effective_task = (
            task if duration == task.duration else replace(task, duration=duration)
        )
        slot, reason = self.schedule.can_commit_to(
            effective_task,
            earliest_start=earliest_start,
            deadline=deadline,
        )
        if slot is None:
            return TaskDecline(task.name, reason)

        validity = self.schedule.preferences.bid_validity
        response_deadline = (
            float("inf") if validity == float("inf") else self.clock.now() + validity
        )
        return TaskBidOffer(
            task_name=task.name,
            specialization=self.services.service_count,
            proposed_start=slot.start,
            travel_time=slot.travel_time,
            response_deadline=response_deadline,
        )

    def handle_call_for_bids_batch(self, batch: CallForBidsBatch) -> BidBatch:
        """Evaluate every solicited task and answer with one message."""

        bids: list[TaskBidOffer] = []
        declines: list[TaskDecline] = []
        for call in batch.calls:
            answer = self._evaluate_task(call.task, call.earliest_start, call.deadline)
            if isinstance(answer, TaskDecline):
                declines.append(answer)
            else:
                bids.append(answer)
        return BidBatch(
            sender=self.host_id,
            recipient=batch.sender,
            workflow_id=batch.workflow_id,
            bids=tuple(bids),
            declines=tuple(declines),
        )

    # -- award handling -------------------------------------------------------------
    def handle_award_batch(
        self, batch: AwardBatch
    ) -> list[AwardRejected | Commitment]:
        """Accept every award in the batch, in batch (= task) order.

        Rejections come back as :class:`~repro.net.messages.AwardRejected`
        messages the caller must send.
        """

        return [self._accept_award(batch, award) for award in batch.awards]

    def _accept_award(
        self, batch: AwardBatch, award: TaskAward
    ) -> AwardRejected | Commitment:
        """Turn one award into a commitment, or reject it when no slot is left."""

        workflow_id = batch.workflow_id
        initiator = batch.sender
        task = award.task
        existing = self._accepted.get((workflow_id, task.name))
        if existing is not None and existing.task == task:
            return existing

        start = max(award.scheduled_start, self.clock.now())
        travel = self.schedule.travel_time_to(task.location, at_time=start)
        commitment = Commitment(
            task=task,
            workflow_id=workflow_id,
            start=start,
            travel_time=min(travel, start),
            input_sources=dict(award.input_sources),
            output_destinations={
                label: tuple(hosts)
                for label, hosts in award.output_destinations.items()
            },
            trigger_labels=frozenset(award.trigger_labels),
            initiator=initiator,
        )
        try:
            self.schedule.add_commitment(commitment)
        except ScheduleConflictError:
            # The bid was firm but another award landed in the same slot first
            # (the host may have bid on several tasks).  Try to honour the
            # award in the next free slot; reject only if none exists.
            slot = self.schedule.find_slot(task, earliest_start=start)
            if slot is None:
                return AwardRejected(
                    sender=self.host_id,
                    recipient=initiator,
                    workflow_id=workflow_id,
                    task_name=task.name,
                    reason="no remaining feasible slot",
                )
            commitment = replace(
                commitment,
                start=slot.start,
                travel_time=min(slot.travel_time, slot.start),
            )
            self.schedule.add_commitment(commitment)

        self._accepted[(workflow_id, task.name)] = commitment
        self.execution.watch(commitment)
        return commitment

    def __repr__(self) -> str:
        return (
            f"AuctionParticipationManager(host={self.host_id!r}, "
            f"awards={len(self._accepted)})"
        )
