"""Golden values for multi-hop 802.11g trials over random-waypoint hosts.

Three seeded 100-host trials at the ``mobile`` point of the repository's
benchmark (a 50-task supergraph, path-4 specifications, a site whose side
grows with the square root of the population) run through
:func:`run_allocation_trial`.  Their message and byte counts, simulated
allocation time and allocation must equal values recorded before the
network layer learned to skip snapshot advances inside a stability
horizon.  Any change that moves a route, a latency or a reachability
verdict moves at least one of them.  The hash-seed and determinism suites
only compare the code with itself; these values fix what it computes.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.experiments import adhoc_network_factory, build_trial_community
from repro.experiments.trials import run_allocation_trial, trial_result_from_workspace
from repro.mobility.geometry import square_site
from repro.mobility.models import RandomWaypointMobility
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

NUM_HOSTS = 100
NUM_TASKS = 50
PATH_LENGTH = 4

#: seed -> (messages, bytes, simulated allocation seconds, allocation).
GOLDEN = {
    1: (
        402,
        109616,
        0.053478713268441586,
        (
            ("task-1", "host-2"),
            ("task-14", "host-12"),
            ("task-30", "host-30"),
            ("task-36", "host-20"),
        ),
    ),
    2: (
        402,
        109616,
        0.06424185514342814,
        (
            ("task-1", "host-12"),
            ("task-14", "host-0"),
            ("task-36", "host-35"),
            ("task-8", "host-37"),
        ),
    ),
    3: (
        402,
        109616,
        0.06307530123710818,
        (
            ("task-0", "host-13"),
            ("task-39", "host-36"),
            ("task-43", "host-25"),
            ("task-6", "host-17"),
        ),
    ),
}


def trial_inputs(seed: int):
    rng = random.Random(f"mobile-golden/{seed}")
    workload = RandomSupergraphWorkload(seed=2009).generate(NUM_TASKS)
    specification = workload.path_specification(PATH_LENGTH, rng)
    site = square_site(60.0 * math.sqrt(NUM_HOSTS))
    return dict(
        workload=workload,
        num_hosts=NUM_HOSTS,
        specification=specification,
        seed=seed,
        network_factory=adhoc_network_factory(seed, multi_hop=True),
        initiator_index=rng.randrange(NUM_HOSTS),
        mobility_factory=lambda index: RandomWaypointMobility(
            site, seed=seed * 256 + index
        ),
    )


def allocation_of(seed: int):
    """The trial's allocation, from the same calls run_allocation_trial makes."""

    inputs = trial_inputs(seed)
    community = build_trial_community(
        inputs["workload"],
        inputs["num_hosts"],
        inputs["seed"],
        network_factory=inputs["network_factory"],
        mobility_factory=inputs["mobility_factory"],
    )
    initiator = f"host-{inputs['initiator_index'] % NUM_HOSTS}"
    workspace = community.submit_specification(initiator, inputs["specification"])
    community.run_until_allocated(workspace, max_sim_seconds=3_600.0)
    outcome = workspace.allocation_outcome
    allocation = tuple(sorted(outcome.allocation.items())) if outcome else ()
    return trial_result_from_workspace(community, workspace), allocation


def observed(seed: int):
    result = run_allocation_trial(**trial_inputs(seed))
    reference, allocation = allocation_of(seed)
    for field in ("succeeded", "messages_sent", "bytes_sent", "sim_seconds"):
        assert getattr(result, field) == getattr(reference, field), field
    return result.messages_sent, result.bytes_sent, result.sim_seconds, allocation


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_mobile_trial_matches_recorded_values(seed):
    assert observed(seed) == GOLDEN[seed]
