"""Property: every workflow terminates under any seeded fault schedule.

The liveness invariant of the fault-injection PR: as long as at least one
capable host per task eventually survives (every crash here restarts, and
every partition ends), a robust community must drive every submitted
workflow to a terminal phase — ``COMPLETED``, or ``FAILED`` cleanly within
the repair ladder — with

* the scheduler drained (no hung auctions, no immortal retry timers),
* no pending invocations left on any live host,
* no award still waiting for an acknowledgement,
* a repair chain no longer than ``max_repair_attempts``, and
* nothing left for the cyclic collector: the dropped community's
  scheduler, network and every host incarnation are freed at once.

Hypothesis drives the schedule: drop/duplicate/delay probabilities, the
number and timing of crash/restart cycles, and an optional mid-run
partition are all drawn per example, then the whole trial is replayed
deterministically from its seed.
"""

import gc
import weakref

from hypothesis import given, settings, strategies as st

from repro.experiments.runner import workload_for
from repro.experiments.trials import build_trial_community, simulated_network_factory
from repro.host.workspace import WorkflowPhase
from repro.net.faults import FaultPlane, HostCrash, LinkFaultPolicy, NetworkPartition
from repro.sim.randomness import derive_rng, derive_seed

from ..lifetime import recording_incarnations

SETTINGS = settings(max_examples=40, deadline=None)
NUM_HOSTS = 10
MAX_REPAIR_ATTEMPTS = 6
WORKLOAD = workload_for(42, 30)
SPEC = WORKLOAD.path_specification(3, derive_rng(42, "chaos-spec"))

schedules = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31),
        "drop": st.floats(min_value=0.0, max_value=0.3),
        "duplicate": st.floats(min_value=0.0, max_value=0.15),
        "delay_mean": st.floats(min_value=0.0, max_value=2.0),
        "crashes": st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=NUM_HOSTS - 1),  # victim index
                st.floats(min_value=5.0, max_value=200.0),  # crash time
                st.floats(min_value=10.0, max_value=120.0),  # outage length
            ),
            max_size=3,
            unique_by=lambda crash: crash[0],
        ),
        "partition": st.one_of(
            st.none(),
            st.tuples(
                st.floats(min_value=5.0, max_value=100.0),  # start
                st.floats(min_value=5.0, max_value=60.0),  # length
                st.integers(min_value=2, max_value=NUM_HOSTS - 1),  # split point
            ),
        ),
    }
)


def run_chaos_trial(schedule):
    seed = schedule["seed"]
    community = build_trial_community(
        WORKLOAD,
        NUM_HOSTS,
        seed=seed,
        network_factory=simulated_network_factory(seed),
        fault_injection=True,
        enable_recovery=True,
        max_repair_attempts=MAX_REPAIR_ATTEMPTS,
    )
    crashes = tuple(
        HostCrash(host_id=f"host-{victim}", crash_at=at, restart_at=at + outage)
        for victim, at, outage in schedule["crashes"]
    )
    partitions = ()
    if schedule["partition"] is not None:
        start, length, split = schedule["partition"]
        hosts = [f"host-{index}" for index in range(NUM_HOSTS)]
        partitions = (
            NetworkPartition(
                start=start,
                end=start + length,
                groups=(tuple(hosts[:split]), tuple(hosts[split:])),
            ),
        )
    plane = FaultPlane(
        seed=derive_seed(seed, "chaos"),
        default_policy=LinkFaultPolicy(
            drop_probability=schedule["drop"],
            duplicate_probability=schedule["duplicate"],
            extra_delay_mean=schedule["delay_mean"],
        ),
        partitions=partitions,
        crashes=crashes,
    )
    community.install_fault_plane(plane)
    workspace = community.submit_specification("host-0", SPEC)
    community.run_idle(max_sim_seconds=10_000.0)
    return community, workspace


@given(schedule=schedules)
@SETTINGS
def test_every_workflow_terminates_and_nothing_leaks(schedule):
    with recording_incarnations() as incarnations:
        community, workspace = run_chaos_trial(schedule)
    assert_terminated_and_drained(community, workspace)

    # Nothing outlives the community: dropped with the collector off, its
    # scheduler, its network and every host incarnation, crashed ones
    # included, are freed by reference counting alone.
    parts = [weakref.ref(community.scheduler), weakref.ref(community.network)]
    gc.disable()
    try:
        community = workspace = None
        assert [ref for ref in parts + incarnations if ref() is not None] == []
    finally:
        gc.enable()


def assert_terminated_and_drained(community, workspace):
    manager = community.host("host-0").workflow_manager

    # Termination: the repair chain ends in a terminal phase, within the
    # configured ladder.
    chain = [workspace]
    while chain[-1].repaired_by is not None:
        chain.append(manager.workspace(chain[-1].repaired_by))
    final = chain[-1]
    assert final.phase in (WorkflowPhase.COMPLETED, WorkflowPhase.FAILED)
    assert len(chain) <= MAX_REPAIR_ATTEMPTS + 1
    for earlier in chain[:-1]:
        assert earlier.phase is WorkflowPhase.FAILED

    # No hang: quiescence was reached because nothing is scheduled, not
    # because the simulation ran out of road.
    assert community.scheduler.peek_time() is None

    # No leaks on any surviving host: every invocation settled or was
    # abandoned by its timeout, and every award was acknowledged, struck,
    # or written off.
    for host in community:
        assert not host.execution_manager.pending_invocations(), host.host_id
        assert not host.auction_manager._unacked, host.host_id


overlap_schedules = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31),
        "drop": st.floats(min_value=0.0, max_value=0.2),
        "victim": st.integers(min_value=1, max_value=NUM_HOSTS - 1),
        "partition_start": st.floats(min_value=5.0, max_value=80.0),
        "partition_length": st.floats(min_value=10.0, max_value=90.0),
        "split": st.integers(min_value=1, max_value=NUM_HOSTS - 1),
        # Where inside the partition window the victim crashes (fraction),
        # and whether it restarts before or after the window ends.
        "crash_fraction": st.floats(min_value=0.05, max_value=0.95),
        "restart_inside": st.booleans(),
        "durability": st.sampled_from([None, "memory"]),
    }
)


def run_overlap_trial(schedule):
    """A host crashes while a partition covering it is active.

    The crash lands strictly inside the partition window; the restart is
    scheduled either before the window ends (the restarted host comes back
    into a still-partitioned network) or after it (the host misses the
    whole partition).  Either way the liveness invariant must hold, with
    or without the durable state plane.
    """

    seed = schedule["seed"]
    community = build_trial_community(
        WORKLOAD,
        NUM_HOSTS,
        seed=seed,
        network_factory=simulated_network_factory(seed),
        fault_injection=True,
        enable_recovery=True,
        max_repair_attempts=MAX_REPAIR_ATTEMPTS,
        durability=schedule["durability"],
    )
    start = schedule["partition_start"]
    end = start + schedule["partition_length"]
    crash_at = start + schedule["crash_fraction"] * (end - start)
    restart_at = (
        min(end - 0.5, crash_at + 1.0) if schedule["restart_inside"] else end + 10.0
    )
    restart_at = max(restart_at, crash_at + 0.5)
    hosts = [f"host-{index}" for index in range(NUM_HOSTS)]
    split = schedule["split"]
    plane = FaultPlane(
        seed=derive_seed(seed, "chaos-overlap"),
        default_policy=LinkFaultPolicy(drop_probability=schedule["drop"]),
        partitions=(
            NetworkPartition(
                start=start,
                end=end,
                groups=(tuple(hosts[:split]), tuple(hosts[split:])),
            ),
        ),
        crashes=(
            HostCrash(
                host_id=f"host-{schedule['victim']}",
                crash_at=crash_at,
                restart_at=restart_at,
            ),
        ),
    )
    community.install_fault_plane(plane)
    workspace = community.submit_specification("host-0", SPEC)
    community.run_idle(max_sim_seconds=10_000.0)
    return community, workspace


@given(schedule=overlap_schedules)
@SETTINGS
def test_crash_inside_partition_preserves_liveness(schedule):
    community, workspace = run_overlap_trial(schedule)
    manager = community.host("host-0").workflow_manager

    chain = [workspace]
    while chain[-1].repaired_by is not None:
        chain.append(manager.workspace(chain[-1].repaired_by))
    final = chain[-1]
    assert final.phase in (WorkflowPhase.COMPLETED, WorkflowPhase.FAILED)
    assert len(chain) <= MAX_REPAIR_ATTEMPTS + 1
    assert community.scheduler.peek_time() is None
    assert community.hosts_crashed == 1
    assert community.hosts_restarted == 1
    for host in community:
        assert not host.execution_manager.pending_invocations(), host.host_id
        assert not host.auction_manager._unacked, host.host_id


@given(schedule=overlap_schedules)
@SETTINGS
def test_crash_inside_partition_replays_identically(schedule):
    def fingerprint():
        community, workspace = run_overlap_trial(schedule)
        manager = community.host("host-0").workflow_manager
        final = manager.final_workspace(workspace.workflow_id) or workspace
        return (
            final.phase,
            final.failure_reason,
            community.fault_plane.statistics.as_dict(),
            sum(host.execution_manager.invocations_resumed for host in community),
            dict(community.network.statistics.by_kind),
        )

    assert fingerprint() == fingerprint()


@given(schedule=schedules)
@SETTINGS
def test_chaos_trials_replay_identically(schedule):
    def fingerprint():
        community, workspace = run_chaos_trial(schedule)
        manager = community.host("host-0").workflow_manager
        final = manager.final_workspace(workspace.workflow_id) or workspace
        plane = community.fault_plane
        return (
            final.phase,
            final.failure_reason,
            plane.statistics.as_dict(),
            community.hosts_crashed,
            community.hosts_restarted,
            dict(community.network.statistics.by_kind),
        )

    assert fingerprint() == fingerprint()
