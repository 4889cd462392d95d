"""Golden values for multi-hop 802.11g trials over mobile hosts.

Three seeded 100-host trials at the ``mobile`` point of the repository's
benchmark (a 50-task supergraph, path-4 specifications, a site whose side
grows with the square root of the population) run through
:func:`run_allocation_trial`.  Their message and byte counts, simulated
allocation time and allocation must equal values recorded before the
network layer learned to skip snapshot advances inside a stability
horizon.

Allocation ends before links change much, so one more scenario runs
workflows to completion while hosts move: an 8-task fan-out workflow (one
hub task feeding six parallel stages and a join) submitted 40 times on a
20-host community where every fifth host (and both specialists) wanders
as a random waypoint.  Its phases, completed tasks, final simulated clock,
route discoveries and execution traffic must equal values recorded while
link epochs were still bumped ahead of time at predicted link breaks, on
both ``vectorized`` paths, and the per-label execution protocol must
complete the same workflows there with more messages.

In the ``mobile`` trials every host moves, so each snapshot advance drops
every memo at once.  A mostly-at-rest population takes the other branch:
in a 150-host allocation trial where four of five hosts sit still and
every fifth wanders, each advance diffs the movers' radio discs before and
after and keeps every memo whose links held.  Its phase, simulated
allocation time, snapshot counters, route discoveries, traffic and
allocation must equal values recorded with the per-tick rebuild and
brute-force reference paths still in the network, on both ``vectorized``
paths.

Any change that moves a route, a latency or a reachability verdict moves
at least one of these values.  The hash-seed and determinism suites only
compare the code with itself; these values fix what it computes.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.fragments import WorkflowFragment
from repro.core.specification import Specification
from repro.core.tasks import Task
from repro.execution.services import ServiceDescription
from repro.experiments import adhoc_network_factory, build_trial_community
from repro.experiments.trials import run_allocation_trial, trial_result_from_workspace
from repro.host.community import Community
from repro.mobility.geometry import square_site
from repro.mobility.models import RandomWaypointMobility
from repro.net import kernels
from repro.sim.randomness import derive_rng, derive_seed
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


# -- workflows executing while hosts move ------------------------------------

FANOUT_SEED = 20090514
FANOUT_HOSTS = 20
FANOUT_REPEATS = 40
FAN_OUT = 6  # parallel stage tasks between the hub and the join
EXECUTION_KINDS = (
    "LabelDataMessage",
    "TaskCompleted",
    "TaskFailed",
    "LabelBatch",
    "WorkflowProgressReport",
)

#: (completed tasks, final simulated clock, route discoveries, execution
#: messages, execution bytes) after FANOUT_REPEATS completed workflows.
FANOUT_GOLDEN = (320, 19200.572910654402, 75, 120, 46400)


def fanout_tasks() -> list[Task]:
    """One hub task feeding six parallel stages, joined by a final task."""

    hub = Task(
        "prepare",
        inputs=["go"],
        outputs=[f"part-{i}" for i in range(FAN_OUT)],
        duration=60.0,
    )
    stages = [
        Task(f"stage-{i}", inputs=[f"part-{i}"], outputs=[f"ready-{i}"], duration=60.0)
        for i in range(FAN_OUT)
    ]
    join = Task(
        "assemble",
        inputs=[f"ready-{i}" for i in range(FAN_OUT)],
        outputs=["done"],
        duration=60.0,
    )
    return [hub, *stages, join]


def mixed_mobility(index: int):
    """Every fifth host and both specialists wander; the rest sit still."""

    site = square_site(60.0 * math.sqrt(FANOUT_HOSTS))
    if index % 5 == 0 or index in (1, 2):
        return RandomWaypointMobility(
            site, seed=derive_seed(FANOUT_SEED, "bench-exec-mobility", index)
        )
    return site.random_point(derive_rng(FANOUT_SEED, "bench-exec-scatter", index))


def services_of(index: int) -> list[ServiceDescription]:
    """``host-1`` alone runs the hub, ``host-2`` alone the stages and join."""

    if index == 1:
        return [ServiceDescription("prepare", duration=60.0)]
    if index == 2:
        names = [f"stage-{i}" for i in range(FAN_OUT)] + ["assemble"]
        return [ServiceDescription(name, duration=60.0) for name in names]
    return []


VECTORIZED = [
    False,
    pytest.param(
        True,
        marks=pytest.mark.skipif(
            not kernels.numpy_available(), reason="NumPy is not installed"
        ),
    ),
]


def run_mobile_fanout(vectorized, batch_execution=True):
    """Submit the fan-out workflow ``FANOUT_REPEATS`` times, each run to
    its end; returns the phases, the completed-task count and the
    community (kept alive, so its network can be read)."""

    community = Community(
        network_factory=adhoc_network_factory(
            FANOUT_SEED, multi_hop=True, vectorized=vectorized
        )
    )
    fragments = [WorkflowFragment([task]) for task in fanout_tasks()]
    for index in range(FANOUT_HOSTS):
        community.add_host(
            f"host-{index}",
            fragments=fragments if index == 0 else (),
            services=services_of(index),
            mobility=mixed_mobility(index),
            batch_execution=batch_execution,
        )
    specification = Specification(triggers=["go"], goals=["done"])
    phases = []
    completed_tasks = 0
    for _ in range(FANOUT_REPEATS):
        workspace = community.submit_specification("host-0", specification)
        community.run_until_completed(workspace, max_sim_seconds=86_400.0)
        phases.append(workspace.phase.value)
        completed_tasks += len(workspace.completed_tasks)
    return phases, completed_tasks, community


@pytest.mark.parametrize("vectorized", VECTORIZED)
def test_mobile_fanout_execution_matches_recorded_values(vectorized):
    phases, completed_tasks, community = run_mobile_fanout(vectorized)
    network = community.network
    assert phases == ["completed"] * FANOUT_REPEATS
    assert (
        completed_tasks,
        community.clock.now(),
        network.router.discoveries,
        network.statistics.kind_count(*EXECUTION_KINDS),
        network.statistics.kind_bytes(*EXECUTION_KINDS),
    ) == FANOUT_GOLDEN


def test_mobile_fanout_per_label_protocol_completes_the_same_workflows():
    """Over the same moving community the per-label execution protocol
    completes the same workflows and tasks as the batched one, with more
    execution messages."""

    phases, completed_tasks, batched = run_mobile_fanout(None)
    plain_phases, plain_completed_tasks, plain = run_mobile_fanout(
        None, batch_execution=False
    )
    assert plain_phases == phases
    assert plain_completed_tasks == completed_tasks
    assert batched.network.statistics.kind_count(
        *EXECUTION_KINDS
    ) < plain.network.statistics.kind_count(*EXECUTION_KINDS)


# -- a mostly-at-rest population: the sparse disc-diff advance --------------

MIXED_SEED = 20090514
MIXED_HOSTS = 150
MIXED_TASKS = 100

#: (phase, simulated allocation seconds, snapshots built, grid rebuilds,
#: hosts re-evaluated, hosts moved, advances skipped, topology generation,
#: route discoveries, messages, bytes, allocation).
MIXED_GOLDEN = (
    "executing",
    0.09469550387813122,
    301,
    1,
    5280,
    5280,
    124,
    1,
    144,
    602,
    170648,
    (
        ("task-29", "host-36"),
        ("task-32", "host-14"),
        ("task-39", "host-50"),
        ("task-78", "host-49"),
    ),
)


def mostly_at_rest(index: int):
    """Four of five hosts sit with their users; every fifth wanders."""

    site = square_site(60.0 * math.sqrt(MIXED_HOSTS))
    if index % 5 == 0:
        return RandomWaypointMobility(
            site, seed=derive_seed(MIXED_SEED, "bench-maint", index)
        )
    return site.random_point(derive_rng(MIXED_SEED, "bench-maint-scatter", index))


@pytest.mark.parametrize("vectorized", VECTORIZED)
def test_mixed_mobility_trial_matches_recorded_values(vectorized):
    workload = RandomSupergraphWorkload(seed=MIXED_SEED).generate(MIXED_TASKS)
    specification = workload.path_specification(
        4, derive_rng(MIXED_SEED, "bench-maint-spec", MIXED_HOSTS)
    )
    community = build_trial_community(
        workload,
        MIXED_HOSTS,
        seed=MIXED_SEED,
        network_factory=adhoc_network_factory(
            MIXED_SEED, multi_hop=True, vectorized=vectorized
        ),
        mobility_factory=mostly_at_rest,
    )
    workspace = community.submit_specification("host-0", specification)
    community.run_until_allocated(workspace, max_sim_seconds=3_600.0)
    network = community.network
    outcome = workspace.allocation_outcome
    assert (
        workspace.phase.value,
        workspace.time_to_allocation()[0],
        network.snapshots_built,
        network.grid_rebuilds,
        network.hosts_reevaluated,
        network.hosts_moved,
        network.advances_skipped,
        network.topology_generation,
        network.router.discoveries,
        network.statistics.messages_sent,
        network.statistics.bytes_sent,
        tuple(sorted(outcome.allocation.items())) if outcome else (),
    ) == MIXED_GOLDEN
