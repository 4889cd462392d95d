"""Property: the batched execution plane ≡ the per-label/per-task plane.

Two independent properties of the execution-phase substrate:

* **Protocol equivalence** (``batch_execution``): the batched execution
  protocol (one :class:`~repro.net.messages.LabelBatch` per firing and
  destination host, one :class:`~repro.net.messages.WorkflowProgressReport`
  per completion burst) claims to be a pure message-count optimisation.
  Complete trials (discovery → construction → allocation → execution) run
  through both protocols must record identical
  :class:`~repro.scheduling.commitments.CommitmentOutcome`\\ s on every
  host — same tasks, same completion instants, same outputs, same failure
  reasons — and identical initiator-side completion tracking, while the
  batched run never uses *more* execution-phase messages.

* **Generation soundness**: the network's topology generation keys the
  route cache and the router's BFS trees.  On mobile communities driven
  through a probe schedule, with message traffic between probes, the
  route-cache soundness invariant must hold: while the generation is
  unchanged between probes every host's neighbour set, judged from
  positions, is unchanged, and a changed neighbour set always comes with
  a changed generation.  Every multi-hop route the cache serves must have
  all of its links in range.
"""

from hypothesis import given, settings, strategies as st

from repro.core.fragments import WorkflowFragment
from repro.core.specification import Specification
from repro.core.tasks import Task
from repro.execution.services import ServiceDescription
from repro.experiments.trials import build_trial_community
from repro.host.community import Community
from repro.host.workspace import WorkflowPhase
from repro.mobility.geometry import Point, Rectangle
from repro.core.errors import HostUnreachableError
from repro.mobility.models import (
    RandomWaypointMobility,
    StaticMobility,
    WaypointMobility,
)
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.messages import Message
from repro.sim.events import EventScheduler
from repro.sim.randomness import derive_rng
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

from ..reference.network import in_range_by_position

SEED = 20090514
SETTINGS = settings(max_examples=15, deadline=None)

EXECUTION_KINDS = (
    "LabelDataMessage",
    "TaskCompleted",
    "TaskFailed",
    "LabelBatch",
    "WorkflowProgressReport",
)


# ---------------------------------------------------------------------------
# Batched vs per-label execution protocol
# ---------------------------------------------------------------------------


def run_execution_trial(batch_execution, num_tasks, num_hosts, path_length):
    """One complete trial run to workflow completion; returns the community
    and its initiator workspace (``None, None`` when no spec exists)."""

    workload = RandomSupergraphWorkload(seed=SEED).generate(num_tasks)
    community = build_trial_community(
        workload, num_hosts=num_hosts, seed=SEED, batch_execution=batch_execution
    )
    rng = derive_rng(SEED, "exec-equivalence", num_tasks, num_hosts, path_length)
    specification = workload.path_specification(path_length, rng)
    if specification is None:
        return None, None
    workspace = community.submit_specification("host-0", specification)
    community.run_until_completed(workspace)
    return community, workspace


def commitment_outcomes_view(community):
    """Every host's commitment outcomes, normalised for cross-run comparison
    (the workflow id embeds a process-global counter, so it is dropped)."""

    view = {}
    for host in community:
        view[host.host_id] = sorted(
            (
                outcome.commitment.task.name,
                outcome.completed_at,
                outcome.succeeded,
                tuple(sorted(outcome.outputs_sent)),
                outcome.failure_reason,
            )
            for outcome in host.execution_manager.outcomes
        )
    return view


@given(
    num_tasks=st.integers(min_value=12, max_value=40),
    num_hosts=st.integers(min_value=2, max_value=6),
    path_length=st.integers(min_value=2, max_value=8),
)
@SETTINGS
def test_batched_and_per_label_execution_identical(num_tasks, num_hosts, path_length):
    batched_community, batched_ws = run_execution_trial(
        True, num_tasks, num_hosts, path_length
    )
    plain_community, plain_ws = run_execution_trial(
        False, num_tasks, num_hosts, path_length
    )
    if batched_ws is None:
        assert plain_ws is None
        return

    assert batched_ws.phase == plain_ws.phase
    assert batched_ws.completed_tasks == plain_ws.completed_tasks
    assert batched_ws.failed_tasks == plain_ws.failed_tasks
    assert commitment_outcomes_view(batched_community) == commitment_outcomes_view(
        plain_community
    )
    assert sum(
        h.execution_manager.unexpected_labels for h in batched_community
    ) == sum(h.execution_manager.unexpected_labels for h in plain_community)

    # Batching can only remove messages, never add them.
    batched_stats = batched_community.network.statistics
    plain_stats = plain_community.network.statistics
    assert batched_stats.kind_count(*EXECUTION_KINDS) <= plain_stats.kind_count(
        *EXECUTION_KINDS
    )
    assert "LabelDataMessage" not in batched_stats.by_kind
    assert "LabelBatch" not in plain_stats.by_kind


def test_execution_batching_cuts_messages_on_multi_task_workflow():
    """Deterministic spot check: a real reduction, not just no-worse."""

    results = {}
    for batched in (True, False):
        community, workspace = run_execution_trial(
            batched, num_tasks=30, num_hosts=2, path_length=8
        )
        assert workspace is not None
        assert workspace.phase is WorkflowPhase.COMPLETED
        results[batched] = community.network.statistics
    batched_messages = results[True].kind_count(*EXECUTION_KINDS)
    plain_messages = results[False].kind_count(*EXECUTION_KINDS)
    assert batched_messages < plain_messages
    assert results[True].kind_bytes(*EXECUTION_KINDS) < results[False].kind_bytes(
        *EXECUTION_KINDS
    )


FAN_OUT = 6  # parallel stage tasks between the hub and the join
LABEL_KINDS = ("LabelDataMessage", "LabelBatch")
COMPLETION_KINDS = ("TaskCompleted", "TaskFailed", "WorkflowProgressReport")


def run_fanout(batch_execution: bool):
    """The 8-task hub -> six parallel stages -> join workflow on three hosts.

    ``host-0`` holds the know-how, ``host-1`` alone runs the hub and
    ``host-2`` alone the stages and the join, so allocation is forced and
    only the execution protocol differs between the two runs.
    """

    hub = Task(
        "prepare", inputs=["go"], outputs=[f"part-{i}" for i in range(FAN_OUT)]
    )
    stages = [
        Task(f"stage-{i}", inputs=[f"part-{i}"], outputs=[f"ready-{i}"])
        for i in range(FAN_OUT)
    ]
    join = Task(
        "assemble", inputs=[f"ready-{i}" for i in range(FAN_OUT)], outputs=["done"]
    )
    community = Community()
    community.add_host(
        "host-0",
        fragments=[WorkflowFragment([task]) for task in (hub, *stages, join)],
        batch_execution=batch_execution,
    )
    community.add_host(
        "host-1",
        services=[ServiceDescription("prepare", duration=60.0)],
        batch_execution=batch_execution,
    )
    community.add_host(
        "host-2",
        services=[
            ServiceDescription(task.name, duration=60.0) for task in (*stages, join)
        ],
        batch_execution=batch_execution,
    )
    workspace = community.submit_specification(
        "host-0", Specification(triggers=["go"], goals=["done"])
    )
    community.run_until_completed(workspace)
    assert workspace.phase is WorkflowPhase.COMPLETED
    assert len(workspace.workflow.task_names) == FAN_OUT + 2
    return community.network.statistics


def test_fanout_workflow_batching_cuts_execution_messages_threefold():
    """Fan-out is where per-label messaging hurts most: one message per label
    and destination plus one completion per task, against one label batch
    per firing and destination plus one report per completion burst."""

    batched = run_fanout(True)
    plain = run_fanout(False)
    assert 3 * batched.kind_count(*EXECUTION_KINDS) <= plain.kind_count(
        *EXECUTION_KINDS
    )
    assert batched.kind_count(*LABEL_KINDS) < plain.kind_count(*LABEL_KINDS)
    assert batched.kind_count(*COMPLETION_KINDS) < plain.kind_count(
        *COMPLETION_KINDS
    )
    assert batched.kind_bytes(*EXECUTION_KINDS) < plain.kind_bytes(*EXECUTION_KINDS)


# ---------------------------------------------------------------------------
# The topology generation under message traffic
# ---------------------------------------------------------------------------

SITE = Rectangle(0.0, 0.0, 300.0, 300.0)

coordinates = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)
points = st.builds(Point, coordinates, coordinates)

static_specs = st.tuples(st.just("static"), points)
waypoint_specs = st.tuples(
    st.just("waypoint"),
    st.lists(points, min_size=1, max_size=4),
    st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
random_specs = st.tuples(
    st.just("random"),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
mobility_specs = st.one_of(static_specs, waypoint_specs, random_specs)

populations = st.lists(mobility_specs, min_size=0, max_size=8)
schedules = st.lists(
    st.floats(min_value=0.01, max_value=60.0, allow_nan=False), min_size=1, max_size=6
)


def make_model(spec):
    kind = spec[0]
    if kind == "static":
        return StaticMobility(spec[1])
    if kind == "waypoint":
        _, waypoints, speed, pause = spec
        return WaypointMobility(waypoints, speed=speed, pause=pause)
    _, seed, pause = spec
    return RandomWaypointMobility(SITE, seed=seed, pause=pause)


def build_mobile_network(specs):
    scheduler = EventScheduler()
    network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
    for index, spec in enumerate(specs):
        host = f"h{index}"
        network.register(host, lambda m: None)
        network.place_host(host, make_model(spec))
    return network, scheduler


@given(populations, schedules)
@SETTINGS
def test_lazy_link_epochs_keep_route_cache_sound(specs, deltas):
    """Route-cache soundness under the topology generation (which replaced
    per-host link epochs; the test id is kept).  Links are judged from
    positions, not ``in_radio_range``, which reads the memos under test."""

    network, scheduler = build_mobile_network(specs)

    hosts = sorted(network.host_ids)
    previous = None
    for delta in deltas:
        scheduler.clock.advance(delta)
        for index, sender in enumerate(hosts):
            # Message-shaped traffic: route lookups validate cached routes
            # against the generation and re-stamp them, as a running
            # middleware does between probes.
            recipient = hosts[(index + 1) % len(hosts)]
            try:
                network.latency_for(Message(sender=sender, recipient=recipient))
            except HostUnreachableError:
                continue
            if not in_range_by_position(network, sender, recipient):
                # The multi-hop route the cache just served is intact.
                route, cached = network.router.lookup(sender, recipient)
                assert cached, (sender, recipient)
                for first, second in zip(route.hops, route.hops[1:]):
                    assert in_range_by_position(network, first, second), route
        generation = network.generation_of(hosts)
        assert generation is not None
        links = {
            host: {
                other
                for other in hosts
                if other != host and in_range_by_position(network, host, other)
            }
            for host in hosts
        }
        if previous is not None:
            last_generation, last_links = previous
            # An unchanged generation proves every link set unchanged, and
            # a changed link set always advances the generation.
            if generation == last_generation:
                assert links == last_links
            if links != last_links:
                assert generation != last_generation
        previous = (generation, links)
