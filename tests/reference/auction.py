"""The paper's allocation rule without a network: who wins each task.

Every participant answers every task of the workflow: it declines when it
offers no service of the task's type, and otherwise bids the first slot its
schedule can commit to at the task's earliest start, with the task running
at least as long as the service takes.  The earliest start is the critical
path over declared durations from the current instant.  The selection
policy then ranks each task's bids and the first one wins.  Bids reserve
nothing, so the participants of a freshly built community answer exactly
as the same hosts do when a trial auctions its workflow on a kind network.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.allocation.bids import DEFAULT_POLICY, Bid, rank_bids


@dataclass
class ReferenceAllocation:
    allocation: dict[str, str] = field(default_factory=dict)
    winning_bids: dict[str, Bid] = field(default_factory=dict)
    unallocated: set[str] = field(default_factory=set)
    bids_received: int = 0
    declines_received: int = 0


def earliest_starts(workflow, now: float) -> dict[str, float]:
    """Each task's start once every producer of its inputs could have finished."""

    starts: dict[str, float] = {}

    def start_of(name: str) -> float:
        if name not in starts:
            producers = {workflow.producing_task(label) for label in workflow.task(name).inputs}
            starts[name] = max(
                [now]
                + [start_of(p) + workflow.task(p).duration for p in producers if p is not None]
            )
        return starts[name]

    for name in workflow.task_names:
        start_of(name)
    return starts


def answer(host, task, earliest_start: float, now: float) -> Bid | None:
    """``host``'s bid on ``task``, or ``None`` for a decline."""

    services = host.service_manager
    if not services.provides(task.service_type):
        return None
    duration = max(task.duration, services.expected_duration(task))
    slot, _ = host.schedule_manager.can_commit_to(
        replace(task, duration=duration), earliest_start=earliest_start
    )
    if slot is None:
        return None
    validity = host.schedule_manager.preferences.bid_validity
    return Bid(
        bidder=host.host_id,
        task_name=task.name,
        specialization=services.service_count,
        proposed_start=slot.start,
        travel_time=slot.travel_time,
        response_deadline=now + validity,
    )


def allocate(community, workflow, policy=DEFAULT_POLICY) -> ReferenceAllocation:
    """Auction every task of ``workflow`` among every host of ``community``."""

    now = community.clock.now()
    result = ReferenceAllocation()
    for name, start in earliest_starts(workflow, now).items():
        bids = []
        for host in community:
            bid = answer(host, workflow.task(name), start, now)
            if bid is None:
                result.declines_received += 1
            else:
                bids.append(bid)
        result.bids_received += len(bids)
        if bids:
            winner = rank_bids(bids, policy)[0]
            result.allocation[name] = winner.bidder
            result.winning_bids[name] = winner
        else:
            result.unallocated.add(name)
    return result
