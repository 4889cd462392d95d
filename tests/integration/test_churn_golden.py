"""Golden values for robust-mode trials: churn, durable churn, producer crash.

The churn, durability and producer-crash suites assert properties (a
completion rate, durable no worse than repair-only, a replay happened),
so a change to how a host's robust options reach its managers can move
every robust-mode result and still pass them.  These tests pin the whole
deterministic :class:`~repro.experiments.trials.TrialResult` of seeded
runs instead:

* ``run_churn_trial`` on the 20-host hostile network of ``test_churn.py``
  (10% drop, 2% duplication, two crash/restart cycles).  Seed 3
  re-auctions a task and finishes in a completed repair revision.  Seeds 8
  and 13 lose a label to a drop and pull it from its producer: seed 13's
  original revision completes, and seed 8's first repair revision does.
* The mid-execution crash schedule of ``test_durable_churn.py`` (60-second
  tasks, four crashes, no message faults), repair-only and with
  ``durability="memory"``.
* Seed 0's :func:`~repro.experiments.trials.plan_producer_crash` schedule,
  run repair-only, with journaled lifecycle but no journaled outputs, and
  with journaled outputs: only the last replays a label, and it completes
  the original revision with the fewest messages.

In the last two groups every input pull reaches a producer that has not
published the label yet, so it goes unanswered and adds only its
``LabelReplayRequest`` to the traffic.

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
        succeeded=True,
        allocation_seconds=64.77098600585563,
        sim_seconds=64.77098600585563,
        messages_sent=186,
        bytes_sent=59856,
        fragments_collected=0,
        cache_hits=1,
        fragments_reused=30,
        remotes_skipped=19,
        fragment_messages=49,
        fragment_bytes=12504,
        hosts_crashed=2,
        messages_faulted=23,
        retries=19,
        workflows_recovered=1,
        recovery_seconds=94.77098600585563,
        labels_replayed=2,
    ),
    13: dict(
        succeeded=True,
        allocation_seconds=36.970973888054786,
        sim_seconds=36.970973888054786,
        messages_sent=108,
        bytes_sent=33704,
        fragments_collected=30,
        nodes_recolored=26,
        fragment_messages=43,
        fragment_bytes=11056,
        hosts_crashed=2,
        messages_faulted=10,
        retries=6,
        labels_replayed=1,
    ),
}

DURABLE_CHURN_GOLDEN = {
    None: dict(
        succeeded=True,
        allocation_seconds=0.0,
        sim_seconds=0.0,
        messages_sent=149,
        bytes_sent=47400,
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
        messages_sent=96,
        bytes_sent=28608,
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
            messages_sent=151,
            bytes_sent=47456,
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
            messages_sent=156,
            bytes_sent=47904,
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
            messages_sent=97,
            bytes_sent=28712,
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
