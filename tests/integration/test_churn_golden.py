"""Golden values for robust-mode trials: churn, durable churn, producer crash.

The churn, durability and producer-crash suites assert properties (a
completion rate, durable no worse than repair-only, a replay happened),
so a change to how a host's robust options reach its managers can move
every robust-mode result and still pass them.  These tests pin the whole
deterministic :class:`~repro.experiments.trials.TrialResult` of seeded
runs instead:

* ``run_churn_trial`` on the 20-host hostile network of ``test_churn.py``
  (10% drop, 2% duplication, two crash/restart cycles).  Seeds 3 and 13
  each re-auction a task and finish in a completed repair revision; seed 8
  ends FAILED.
* The mid-execution crash schedule of ``test_durable_churn.py`` (60-second
  tasks, four crashes, no message faults), repair-only and with
  ``durability="memory"``.
* Seed 0's :func:`~repro.experiments.trials.plan_producer_crash` schedule,
  run repair-only, with journaled lifecycle but no journaled outputs, and
  with journaled outputs: only the last replays a label, and it completes
  the original revision with the fewest messages.

Each golden lists the result's fields that differ from the
``TrialResult`` defaults; an unlisted field must keep its default.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import workload_for
from repro.experiments.trials import (
    TrialResult,
    plan_producer_crash,
    run_churn_trial,
    simulated_network_factory,
)
from repro.net.faults import HostCrash
from repro.sim.randomness import derive_rng

WORKLOAD = workload_for(42, 30)
SPEC = WORKLOAD.path_specification(4, derive_rng(42, "spec"))
TIMED_WORKLOAD = WORKLOAD.with_task_durations(60.0)
NUM_HOSTS = 20

#: Fields every golden below shares.
COMMON = dict(wall_seconds=0.0, workflow_tasks=4, solver="memoized", distinct_winners=4)

CHURN_GOLDEN = {
    3: dict(
        succeeded=True,
        allocation_seconds=61.69940235891306,
        sim_seconds=61.69940235891306,
        messages_sent=166,
        bytes_sent=55144,
        fragments_collected=0,
        cache_hits=1,
        fragments_reused=30,
        remotes_skipped=19,
        fragment_messages=45,
        fragment_bytes=11784,
        hosts_crashed=2,
        messages_faulted=13,
        retries=12,
        reauctions=1,
        workflows_recovered=1,
        recovery_seconds=61.69940235891306,
    ),
    8: dict(
        succeeded=False,
        allocation_seconds=21.511935733873997,
        sim_seconds=21.511935733873997,
        messages_sent=492,
        bytes_sent=172992,
        fragments_collected=0,
        failure_reason=(
            "task 'task-2' failed during execution: abandoned: inputs "
            "[label-16] never arrived within 60s of the scheduled start"
        ),
        cache_hits=1,
        fragments_reused=30,
        remotes_skipped=19,
        fragment_messages=49,
        fragment_bytes=12504,
        unexpected_labels=1,
        hosts_crashed=2,
        messages_faulted=66,
        retries=49,
    ),
    13: dict(
        succeeded=True,
        allocation_seconds=63.1833383804634,
        sim_seconds=63.1833383804634,
        messages_sent=422,
        bytes_sent=146344,
        fragments_collected=0,
        cache_hits=1,
        fragments_reused=30,
        remotes_skipped=19,
        fragment_messages=43,
        fragment_bytes=11056,
        unexpected_labels=1,
        hosts_crashed=2,
        messages_faulted=56,
        retries=34,
        reauctions=1,
        workflows_recovered=1,
        recovery_seconds=668.2567511692298,
    ),
}

DURABLE_CHURN_GOLDEN = {
    None: dict(
        succeeded=True,
        allocation_seconds=0.0,
        sim_seconds=0.0,
        messages_sent=146,
        bytes_sent=47136,
        fragments_collected=0,
        cache_hits=1,
        fragments_reused=30,
        remotes_skipped=19,
        fragment_messages=38,
        fragment_bytes=9288,
        hosts_crashed=4,
        workflows_recovered=1,
        recovery_seconds=240.0,
    ),
    "memory": dict(
        succeeded=True,
        allocation_seconds=0.0,
        sim_seconds=0.0,
        messages_sent=93,
        bytes_sent=28344,
        fragments_collected=30,
        nodes_recolored=26,
        fragment_messages=38,
        fragment_bytes=9288,
        hosts_crashed=4,
        invocations_resumed=1,
    ),
}

#: Seed 0's planned schedule: the consumer dies just before the earliest
#: cross-host publication, the producer just after.
PRODUCER_CRASHES = (
    HostCrash(host_id="host-1", crash_at=59.0, restart_at=86.0),
    HostCrash(host_id="host-9", crash_at=61.0, restart_at=85.0),
)

#: name -> (run_churn_trial keywords, golden fields).
PRODUCER_CRASH_GOLDEN = {
    "repair-only": (
        {},
        dict(
            succeeded=True,
            allocation_seconds=0.0,
            sim_seconds=0.0,
            messages_sent=145,
            bytes_sent=46928,
            fragments_collected=0,
            cache_hits=1,
            fragments_reused=30,
            remotes_skipped=19,
            fragment_messages=38,
            fragment_bytes=9240,
            hosts_crashed=2,
            workflows_recovered=1,
            recovery_seconds=240.0,
        ),
    ),
    "lifecycle-journal": (
        dict(durability="memory", durable_outputs=False),
        dict(
            succeeded=True,
            allocation_seconds=0.0,
            sim_seconds=0.0,
            messages_sent=147,
            bytes_sent=47112,
            fragments_collected=0,
            cache_hits=1,
            fragments_reused=30,
            remotes_skipped=19,
            fragment_messages=38,
            fragment_bytes=9240,
            hosts_crashed=2,
            workflows_recovered=1,
            recovery_seconds=240.0,
            invocations_resumed=1,
        ),
    ),
    "journaled-outputs": (
        dict(durability="memory"),
        dict(
            succeeded=True,
            allocation_seconds=0.0,
            sim_seconds=0.0,
            messages_sent=95,
            bytes_sent=28536,
            fragments_collected=30,
            nodes_recolored=26,
            fragment_messages=38,
            fragment_bytes=9240,
            hosts_crashed=2,
            invocations_resumed=1,
            labels_replayed=1,
        ),
    ),
}


def expected(fields: dict) -> TrialResult:
    return TrialResult(**COMMON, **fields)


@pytest.mark.parametrize("seed", sorted(CHURN_GOLDEN))
def test_churn_trial_matches_golden(seed):
    result = run_churn_trial(
        WORKLOAD,
        NUM_HOSTS,
        SPEC,
        seed=seed,
        network_factory=simulated_network_factory(seed),
    )
    assert result.deterministic_copy() == expected(CHURN_GOLDEN[seed])


@pytest.mark.parametrize("durability", [None, "memory"])
def test_durable_churn_trial_matches_golden(durability):
    seed = 2
    result = run_churn_trial(
        TIMED_WORKLOAD,
        NUM_HOSTS,
        SPEC,
        seed=seed,
        network_factory=simulated_network_factory(seed),
        drop_probability=0.0,
        duplicate_probability=0.0,
        num_crashes=4,
        crash_window=(30.0, 200.0),
        outage=25.0,
        durability=durability,
    )
    assert result.deterministic_copy() == expected(DURABLE_CHURN_GOLDEN[durability])


def test_producer_crash_schedule_matches_golden():
    crashes = plan_producer_crash(
        TIMED_WORKLOAD,
        NUM_HOSTS,
        SPEC,
        0,
        network_factory=simulated_network_factory(0),
    )
    assert crashes == PRODUCER_CRASHES


@pytest.mark.parametrize("name", sorted(PRODUCER_CRASH_GOLDEN))
def test_producer_crash_trial_matches_golden(name):
    options, fields = PRODUCER_CRASH_GOLDEN[name]
    result = run_churn_trial(
        TIMED_WORKLOAD,
        NUM_HOSTS,
        SPEC,
        seed=0,
        network_factory=simulated_network_factory(0),
        drop_probability=0.0,
        duplicate_probability=0.0,
        crashes=PRODUCER_CRASHES,
        **options,
    )
    assert result.deterministic_copy() == expected(fields)
