"""Property: the batched execution plane fires as the per-label rule says.

Two independent properties of the execution-phase substrate:

* **Execution model**: a participant sends everything one firing owes one
  host in a single :class:`~repro.net.messages.LabelBatch` and reports
  completion bursts to the initiator in
  :class:`~repro.net.messages.WorkflowProgressReport`\\ s.  The model in
  ``tests/reference/execution.py`` applies the paper's rule one label at a
  time, with no network and no execution manager: over the commitments a
  finished trial left on its hosts, each task fires at the later of its
  start and the arrival of its inputs and sends each output that has a
  destination.  Complete trials (discovery → construction → allocation →
  execution) must record the model's
  :class:`~repro.scheduling.commitments.CommitmentOutcome`\\ s on every
  host — same tasks, same completion instants, same outputs, same
  failure reasons — the model's completed tasks at the initiator and its
  count of labels that arrive after their consumers finished, and one
  label batch per firing and remote destination host, where a message
  per label and destination plus a completion notice per task would cost
  the model's per-label count.

* **Generation soundness**: the network's topology generation keys the
  route cache and the router's BFS trees.  On mobile communities driven
  through a probe schedule, with message traffic between probes, the
  route-cache soundness invariant must hold: while the generation is
  unchanged between probes every host's neighbour set, judged from
  positions, is unchanged, and a changed neighbour set always comes with
  a changed generation.  Every multi-hop route the cache serves must have
  all of its links in range.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fragments import WorkflowFragment
from repro.core.specification import Specification
from repro.core.tasks import Task, TaskMode
from repro.core.workflow import Workflow
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
from repro.scheduling.commitments import Commitment
from repro.sim.events import EventScheduler
from repro.sim.randomness import derive_rng
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

from ..reference import execution as reference
from ..reference.network import in_range_by_position

SEED = 20090514
SETTINGS = settings(max_examples=15, deadline=None)

EXECUTION_KINDS = ("LabelBatch", "WorkflowProgressReport")


# ---------------------------------------------------------------------------
# The batched execution protocol against the per-label model
# ---------------------------------------------------------------------------


def run_execution_trial(num_tasks, num_hosts, path_length, declared=0.0, service=0.0):
    """One complete trial run to workflow completion; returns the community
    and its initiator workspace (``None, None`` when no spec exists).

    Tasks declare ``declared`` seconds; the service of the i-th task takes
    ``service * (i % 3)`` seconds, so with ``service`` larger than
    ``declared`` consumers wait for inputs past their planned starts.
    """

    workload = RandomSupergraphWorkload(seed=SEED).generate(num_tasks)
    workload = workload.with_task_durations(declared)
    workload.services = [
        replace(description, duration=service * (index % 3))
        for index, description in enumerate(workload.services)
    ]
    community = build_trial_community(workload, num_hosts=num_hosts, seed=SEED)
    rng = derive_rng(SEED, "exec-equivalence", num_tasks, num_hosts, path_length)
    specification = workload.path_specification(path_length, rng)
    if specification is None:
        return None, None
    workspace = community.submit_specification("host-0", specification)
    community.run_until_completed(workspace)
    return community, workspace


def commitment_outcomes_view(community):
    """Every host's commitment outcomes, normalised for comparison with the
    model (the workflow id embeds a process-global counter, so it is
    dropped; hosts that ran nothing are left out)."""

    view = {}
    for host in community:
        outcomes = sorted(
            (
                outcome.commitment.task.name,
                outcome.completed_at,
                outcome.succeeded,
                tuple(sorted(outcome.outputs_sent)),
                outcome.failure_reason,
            )
            for outcome in host.execution_manager.outcomes
        )
        if outcomes:
            view[host.host_id] = outcomes
    return view


def check_against_model(community, workflow, workflow_id) -> reference.ReferenceExecution:
    """The hosts executed ``workflow_id`` as the model says; returns the model."""

    expected = reference.execute(community, workflow, workflow_id)
    assert commitment_outcomes_view(community) == expected.outcomes()
    assert (
        sum(host.execution_manager.unexpected_labels for host in community)
        == expected.late_labels
    )
    statistics = community.network.statistics
    assert statistics.by_kind.get("LabelBatch", 0) == expected.label_batches()
    # At least one report from every host that ran a task, at most one per
    # task: completions are reported in bursts.
    reports = statistics.by_kind.get("WorkflowProgressReport", 0)
    executors = {firing.host for firing in expected.firings.values()}
    assert len(executors) <= reports <= len(expected.firings)
    return expected


def check_trial(community, workspace) -> reference.ReferenceExecution:
    """A completed trial executed as the model says, and its initiator saw
    every firing complete."""

    assert workspace.phase is WorkflowPhase.COMPLETED
    expected = check_against_model(community, workspace.workflow, workspace.workflow_id)
    assert workspace.completed_tasks == set(expected.firings)
    assert workspace.failed_tasks == set()
    return expected


@given(
    num_tasks=st.integers(min_value=12, max_value=40),
    num_hosts=st.integers(min_value=2, max_value=6),
    path_length=st.integers(min_value=2, max_value=8),
    declared=st.sampled_from([0.0, 5.0]),
    service=st.sampled_from([0.0, 7.0]),
)
@SETTINGS
def test_batched_and_per_label_execution_identical(
    num_tasks, num_hosts, path_length, declared, service
):
    community, workspace = run_execution_trial(
        num_tasks, num_hosts, path_length, declared, service
    )
    if workspace is None or workspace.workflow is None:
        return
    check_trial(community, workspace)


def test_execution_batching_cuts_messages_on_multi_task_workflow():
    """Deterministic spot check: a real reduction, not just no-worse."""

    community, workspace = run_execution_trial(num_tasks=30, num_hosts=2, path_length=8)
    assert workspace is not None
    expected = check_trial(community, workspace)
    batched = community.network.statistics.kind_count(*EXECUTION_KINDS)
    assert batched < expected.per_label_messages()


@pytest.mark.parametrize("mode", [TaskMode.DISJUNCTIVE, TaskMode.CONJUNCTIVE])
def test_a_label_that_arrives_after_its_consumer_finished_is_late(mode):
    """A disjunctive join fires on its fast input, so the slow branch's
    label reaches its host after the join finished and counts as
    unexpected there; a conjunctive join waits for the slow one.
    Construction keeps one input of a disjunctive task, so the commitments
    are made by hand."""

    fast = Task("fast", inputs=["go"], outputs=["a"])
    slow = Task("slow", inputs=["go"], outputs=["b"])
    join = Task("join", inputs=["a", "b"], outputs=["done"], mode=mode)
    community = Community()
    community.add_host("host-0")
    for index, (task, seconds) in enumerate(((fast, 5.0), (slow, 60.0), (join, 1.0))):
        community.add_host(
            f"host-{index + 1}", services=[ServiceDescription(task.name, duration=seconds)]
        )
    commitments = {
        "host-1": Commitment(
            fast, "w", start=0.0, trigger_labels=frozenset({"go"}),
            output_destinations={"a": ("host-3",)}, initiator="host-0",
        ),
        "host-2": Commitment(
            slow, "w", start=0.0, trigger_labels=frozenset({"go"}),
            output_destinations={"b": ("host-3",)}, initiator="host-0",
        ),
        "host-3": Commitment(
            join, "w", start=0.0, input_sources={"a": "host-1", "b": "host-2"},
            output_destinations={"done": ()}, initiator="host-0",
        ),
    }
    for host_id, commitment in commitments.items():
        host = community.host(host_id)
        host.schedule_manager.add_commitment(commitment)
        host.execution_manager.watch(commitment)
    community.run_idle()

    expected = check_against_model(community, Workflow([fast, slow, join]), "w")
    late = mode is TaskMode.DISJUNCTIVE
    assert expected.firings["join"].fired_at == (5.0 if late else 60.0)
    assert expected.late_labels == int(late)
    assert community.host("host-3").execution_manager.unexpected_labels == int(late)


FAN_OUT = 6  # parallel stage tasks between the hub and the join


def run_fanout():
    """The 8-task hub -> six parallel stages -> join workflow on three hosts.

    ``host-0`` holds the know-how, ``host-1`` alone runs the hub and
    ``host-2`` alone the stages and the join, so allocation is forced.
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
        "host-0", fragments=[WorkflowFragment([task]) for task in (hub, *stages, join)]
    )
    community.add_host("host-1", services=[ServiceDescription("prepare", duration=60.0)])
    community.add_host(
        "host-2",
        services=[
            ServiceDescription(task.name, duration=60.0) for task in (*stages, join)
        ],
    )
    workspace = community.submit_specification(
        "host-0", Specification(triggers=["go"], goals=["done"])
    )
    community.run_until_completed(workspace)
    assert len(workspace.workflow.task_names) == FAN_OUT + 2
    return community, workspace


def test_fanout_workflow_batching_cuts_execution_messages_threefold():
    """Fan-out is where per-label messaging hurts most: one message per label
    and destination plus one completion per task, against one label batch
    per firing and destination plus one report per completion burst."""

    community, workspace = run_fanout()
    expected = check_trial(community, workspace)
    batched = community.network.statistics.kind_count(*EXECUTION_KINDS)
    assert expected.label_batches() == 1  # the hub's six parts, to host-2
    assert expected.per_label_messages() == FAN_OUT + FAN_OUT + 2
    assert 3 * batched <= expected.per_label_messages()


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
