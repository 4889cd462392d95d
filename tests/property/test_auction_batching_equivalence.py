"""Property: the batched auction allocates as the unbatched rule says.

The auction manager solicits every task from every participant in one
``CallForBidsBatch``, records each participant's ``BidBatch`` answer and
awards each winner its tasks in one ``AwardBatch``.  The model in
``tests/reference/auction.py`` applies the paper's rule one (task,
participant) pair at a time, with no network and no auction manager: every
participant of a freshly built community answers every task, and the policy
ranks the bids.  These tests drive complete trials (discovery →
construction → allocation) and check

* the allocation outcome against the model's: winners, winning bids, and
  the bid and decline counts;
* each award's scheduled start against the model's plan from the award
  instant;
* the message counts: one call and one answer per participant, one award
  message per winning host (none when a task found no host), where a
  message per (task, participant) pair would cost 2 x tasks x
  participants + tasks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.trials import build_trial_community
from repro.host.workspace import WorkflowPhase
from repro.net.messages import AwardBatch
from repro.sim.randomness import derive_rng
from repro.workloads.supergraph_gen import RandomSupergraphWorkload
from ..reference import auction as reference

SEED = 20090514
SETTINGS = settings(max_examples=50, deadline=None)


def build_community(workload, num_hosts: int, replicas: int):
    """A trial community in which every service is also offered by the
    ``replicas - 1`` hosts after the one it was dealt to."""

    community = build_trial_community(workload, num_hosts=num_hosts, seed=SEED)
    hosts = list(community)
    dealt = [
        [host.service_manager.get(kind) for kind in sorted(host.service_types)]
        for host in hosts
    ]
    for index, services in enumerate(dealt):
        for step in range(1, replicas):
            for service in services:
                hosts[(index + step) % num_hosts].add_service(service)
    return community


def run_trial(
    num_tasks: int,
    num_hosts: int,
    path_length: int,
    replicas: int = 1,
    duration: float = 0.0,
):
    """One complete trial; returns (workspace, transport statistics, model,
    scheduled start of each award sent).

    The generated tasks are instantaneous and each service is dealt to one
    host; ``duration`` spreads the tasks' earliest starts along the
    critical path, and ``replicas`` lets several hosts bid on each task.
    """

    workload = RandomSupergraphWorkload(seed=SEED).generate(num_tasks)
    if duration:
        workload = workload.with_task_durations(duration)
    community = build_community(workload, num_hosts, replicas)
    rng = derive_rng(SEED, "batch-equivalence", num_tasks, num_hosts, path_length)
    specification = workload.path_specification(path_length, rng)
    if specification is None:
        return None, None, None, None
    scheduled: dict[str, float] = {}
    send = community.network.send

    def recording_send(message):
        if isinstance(message, AwardBatch):
            scheduled.update((a.task.name, a.scheduled_start) for a in message.awards)
        send(message)

    community.network.send = recording_send
    workspace = community.submit_specification("host-0", specification)
    community.run_until_allocated(workspace)
    if workspace.workflow is None:
        return workspace, community.network.statistics, None, scheduled
    fresh = build_community(workload, num_hosts, replicas)
    expected = reference.allocate(fresh, workspace.workflow)
    return workspace, community.network.statistics, expected, scheduled


def auction_messages(statistics) -> tuple[int, int, int]:
    return tuple(
        statistics.by_kind.get(kind, 0)
        for kind in ("CallForBidsBatch", "BidBatch", "AwardBatch")
    )


@given(
    num_tasks=st.integers(min_value=12, max_value=40),
    num_hosts=st.integers(min_value=2, max_value=6),
    path_length=st.integers(min_value=2, max_value=8),
    replicas=st.integers(min_value=1, max_value=3),
    duration=st.sampled_from([0.0, 5.0]),
)
@SETTINGS
def test_batched_and_unbatched_allocations_identical(
    num_tasks, num_hosts, path_length, replicas, duration
):
    workspace, statistics, expected, scheduled = run_trial(
        num_tasks, num_hosts, path_length, replicas, duration
    )
    if workspace is None or expected is None:
        return

    outcome = workspace.allocation_outcome
    assert outcome.allocation == expected.allocation
    assert outcome.winning_bids == expected.winning_bids
    assert set(outcome.unallocated) == expected.unallocated
    assert outcome.bids_received == expected.bids_received
    assert outcome.declines_received == expected.declines_received
    plan = reference.planned_starts(
        workspace.workflow, expected.winning_bids, outcome.completed_at
    )
    # A failed auction awards nothing.
    awarded = outcome.allocation if outcome.succeeded else {}
    assert scheduled == {task: plan[task] for task in awarded}

    participants = num_hosts if workspace.workflow.task_names else 0
    assert auction_messages(statistics) == (
        participants,
        participants,
        len(set(awarded.values())),
    )


@pytest.mark.parametrize("num_hosts", [8, 12])
def test_batched_auction_cuts_messages_fivefold(num_hosts):
    """An 8-task workflow among eight or twelve hosts: one call and one
    answer per participant and one award message per winning host, at
    least 5x fewer than a message per (task, participant) pair."""

    workspace, statistics, expected, _ = run_trial(100, num_hosts, 8)
    tasks = len(workspace.workflow.task_names)
    assert tasks == 8
    winners = {8: 5, 12: 7}[num_hosts]
    assert len(set(expected.allocation.values())) == winners
    assert auction_messages(statistics) == (num_hosts, num_hosts, winners)
    assert 5 * sum(auction_messages(statistics)) <= 2 * tasks * num_hosts + tasks


def test_allocation_phase_completes_for_every_initiator():
    """Sanity sweep: the auction allocates from any initiator."""

    workload = RandomSupergraphWorkload(seed=SEED).generate(24)
    rng = derive_rng(SEED, "initiator-sweep")
    specification = workload.path_specification(4, rng)
    assert specification is not None
    for initiator_index in range(3):
        community = build_trial_community(workload, num_hosts=3, seed=SEED)
        workspace = community.submit_specification(
            f"host-{initiator_index}", specification
        )
        community.run_until_allocated(workspace)
        assert workspace.phase in (WorkflowPhase.EXECUTING, WorkflowPhase.COMPLETED)
