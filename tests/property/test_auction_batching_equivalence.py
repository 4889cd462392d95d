"""Property: the batched auction protocol ≡ the per-task protocol.

The batched protocol (one combined call-for-bids per participant, one
combined bid/decline answer, one combined award message per winning host)
claims to be a pure message-count optimisation: same bids recorded, same
winners picked, same routing information delivered, same
:class:`~repro.allocation.auction.AllocationOutcome` — just O(participants)
messages instead of O(tasks x participants).  These tests drive complete
trials (discovery → construction → allocation) through both protocols and
compare:

* the allocation outcome dictionaries (winners, unallocated reasons, bid
  and decline counts, completion time) — identical up to the generated
  workflow id;
* the ``timing="sim"`` trial results — byte-identical except for the
  transport counters (``messages_sent`` / ``bytes_sent``), which are
  exactly what the batched protocol improves;
* the message counts themselves — batched must use strictly fewer
  messages (and fewer bytes) whenever the workflow has >1 task and the
  community >1 participant, and at least 5x fewer for an 8-task workflow
  among 8 or 12 participants.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.trials import build_trial_community, trial_result_from_workspace
from repro.host.workspace import WorkflowPhase
from repro.sim.randomness import derive_rng
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

SEED = 20090514
SETTINGS = settings(max_examples=15, deadline=None)
AUCTION_KINDS = (
    "CallForBids", "BidMessage", "BidDeclined", "AwardMessage",
    "CallForBidsBatch", "BidBatch", "AwardBatch",
)


def run_trial(batch_auctions: bool, num_tasks: int, num_hosts: int, path_length: int):
    """One complete trial; returns (workspace, transport statistics)."""

    workload = RandomSupergraphWorkload(seed=SEED).generate(num_tasks)
    community = build_trial_community(
        workload, num_hosts=num_hosts, seed=SEED, batch_auctions=batch_auctions
    )
    rng = derive_rng(SEED, "batch-equivalence", num_tasks, num_hosts, path_length)
    specification = workload.path_specification(path_length, rng)
    if specification is None:
        return None, None
    workspace = community.submit_specification("host-0", specification)
    community.run_until_allocated(workspace)
    return workspace, community.network.statistics


def outcome_view(workspace):
    """The allocation outcome, normalised for comparison across runs.

    The workflow id embeds a process-global counter, so it (and only it)
    legitimately differs between the two runs.
    """

    outcome = workspace.allocation_outcome
    if outcome is None:
        return None
    view = outcome.as_dict()
    view.pop("workflow_id")
    return view


@given(
    num_tasks=st.integers(min_value=12, max_value=40),
    num_hosts=st.integers(min_value=2, max_value=6),
    path_length=st.integers(min_value=2, max_value=8),
)
@SETTINGS
def test_batched_and_unbatched_allocations_identical(
    num_tasks, num_hosts, path_length
):
    batched_ws, batched_stats = run_trial(True, num_tasks, num_hosts, path_length)
    unbatched_ws, unbatched_stats = run_trial(False, num_tasks, num_hosts, path_length)
    if batched_ws is None:
        assert unbatched_ws is None
        return

    assert batched_ws.phase == unbatched_ws.phase
    assert outcome_view(batched_ws) == outcome_view(unbatched_ws)
    batched_outcome = batched_ws.allocation_outcome
    unbatched_outcome = unbatched_ws.allocation_outcome
    if batched_outcome is not None:
        assert batched_outcome.winning_bids == unbatched_outcome.winning_bids

    # The message saving is real whenever there was something to batch.
    tasks = len(batched_ws.workflow.task_names) if batched_ws.workflow else 0
    batched_messages = batched_stats.kind_count(*AUCTION_KINDS)
    unbatched_messages = unbatched_stats.kind_count(*AUCTION_KINDS)
    if tasks > 1 and num_hosts > 1:
        assert batched_messages < unbatched_messages
        assert batched_stats.kind_bytes(*AUCTION_KINDS) < unbatched_stats.kind_bytes(
            *AUCTION_KINDS
        )


@pytest.mark.parametrize("num_hosts", [8, 12])
def test_batched_auction_cuts_messages_fivefold(num_hosts):
    """O(participants) messages against O(tasks x participants): an 8-task
    workflow auctioned among eight or more hosts takes at least 5x fewer
    auction messages batched."""

    batched_ws, batched_stats = run_trial(True, 100, num_hosts, 8)
    _, unbatched_stats = run_trial(False, 100, num_hosts, 8)
    assert len(batched_ws.workflow.task_names) == 8
    assert 5 * batched_stats.kind_count(*AUCTION_KINDS) <= unbatched_stats.kind_count(
        *AUCTION_KINDS
    )


def sim_trial_result(batch_auctions: bool, path_length: int):
    """One 30-task, 4-host trial's result with the wall-clock part zeroed."""

    workload = RandomSupergraphWorkload(seed=SEED).generate(30)
    rng = derive_rng(SEED, "sim-timing", path_length)
    specification = workload.path_specification(path_length, rng)
    assert specification is not None
    community = build_trial_community(
        workload, num_hosts=4, seed=SEED, batch_auctions=batch_auctions
    )
    workspace = community.submit_specification("host-1", specification)
    community.run_until_allocated(workspace, max_sim_seconds=3_600.0)
    return trial_result_from_workspace(community, workspace).deterministic_copy()


def test_sim_timing_trial_results_byte_identical_across_flag():
    """`timing="sim"` trial results agree on everything but transport volume."""

    for path_length in (2, 4, 6):
        batched_result = sim_trial_result(True, path_length)
        unbatched_result = sim_trial_result(False, path_length)
        assert batched_result.succeeded and unbatched_result.succeeded
        # messages_sent / bytes_sent are the optimisation target; every
        # other field must agree exactly.
        assert batched_result.messages_sent < unbatched_result.messages_sent
        assert batched_result.bytes_sent < unbatched_result.bytes_sent
        normalised = replace(
            batched_result,
            messages_sent=unbatched_result.messages_sent,
            bytes_sent=unbatched_result.bytes_sent,
        )
        assert normalised == unbatched_result


def test_allocation_phase_completes_for_every_initiator():
    """Sanity sweep: the batched protocol allocates from any initiator."""

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
