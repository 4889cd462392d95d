"""Single-trial runner used by every evaluation experiment.

A *trial* follows the paper's Section 5 procedure exactly:

1. take a pre-generated supergraph workload of the chosen size;
2. distribute its fragments randomly and evenly across the chosen number of
   hosts, and independently distribute the corresponding services;
3. draw a guaranteed-satisfiable specification whose difficulty is the
   requested path length;
4. give the specification to the initiating host and measure the time until
   every task of the resulting workflow has been allocated to some host.

The measured time combines the wall-clock time spent running the real
construction and allocation code (the dominant term for the single-process
simulation of Figures 4 and 5) with the simulated network latency accrued by
the messages exchanged (the extra term that distinguishes the "empirical"
802.11g runs of Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..core.solver import Solver
from ..core.specification import Specification
from ..host.community import Community
from ..host.config import HostConfig
from ..host.workspace import Workspace, WorkflowPhase
from ..net.adhoc import AdHocWirelessNetwork
from ..net.faults import FaultPlane, HostCrash, LinkFaultPolicy
from ..net.simnet import SimulatedNetwork
from ..net.transport import CommunicationsLayer
from ..mobility.geometry import Point
from ..mobility.models import MobilityModel
from ..sim.events import EventScheduler
from ..sim.randomness import derive_rng, derive_seed, sample_without_replacement
from ..workloads.supergraph_gen import GeneratedWorkload


@dataclass(frozen=True)
class TrialResult:
    """Outcome and timings of one construction+allocation trial.

    ``nodes_recolored`` / ``cache_hits`` / ``solver`` expose the
    construction engine's effort counters (see
    :class:`~repro.core.construction.ConstructionStatistics`) so the
    incremental-vs-scratch benchmarks can compare colouring work, not just
    wall-clock time.  ``fragments_reused`` / ``remotes_skipped`` expose the
    shared knowledge plane's reuse, and ``fragment_messages`` /
    ``fragment_bytes`` the discovery traffic (fragment queries plus
    responses) the trial actually put on the wire.  ``unexpected_labels``
    sums, over every host of the community, the label deliveries that
    matched no pending invocation (late or duplicate execution data).

    The churn counters are populated by :func:`run_churn_trial`:
    ``hosts_crashed`` hosts fail-stopped on schedule, ``messages_faulted``
    fault events the plane injected (drops + duplicates + delays),
    ``retries`` re-sent solicitations/awards/discovery queries,
    ``reauctions`` tasks re-awarded because their winner died before
    acknowledging, ``workflows_recovered`` whether the workflow finished
    in a repair revision rather than the original, and
    ``recovery_seconds`` the simulated time from the first failure to
    final completion (0 when no repair was needed).

    With the durable state plane on (``durability=``),
    ``invocations_resumed`` counts in-flight service invocations restarted
    hosts re-armed from their journals instead of losing,
    ``workflows_resumed`` the in-progress workflows a restarted initiator
    picked back up, and ``labels_replayed`` the published labels restarted
    producers re-sent from their journaled publication caches — all 0 when
    durability is off.
    """

    succeeded: bool
    allocation_seconds: float
    wall_seconds: float
    sim_seconds: float
    workflow_tasks: int
    messages_sent: int
    bytes_sent: int
    fragments_collected: int
    failure_reason: str = ""
    solver: str = ""
    nodes_recolored: int = 0
    cache_hits: int = 0
    distinct_winners: int = 0
    fragments_reused: int = 0
    remotes_skipped: int = 0
    fragment_messages: int = 0
    fragment_bytes: int = 0
    unexpected_labels: int = 0
    hosts_crashed: int = 0
    messages_faulted: int = 0
    retries: int = 0
    reauctions: int = 0
    workflows_recovered: int = 0
    recovery_seconds: float = 0.0
    invocations_resumed: int = 0
    workflows_resumed: int = 0
    labels_replayed: int = 0

    def deterministic_copy(self) -> "TrialResult":
        """This result with the wall-clock timing components zeroed.

        Everything else in a trial is a pure function of its seeds, so two
        runs of the same trial — sequential or parallel, on any machine —
        agree exactly on this view.  The parallel-runner equivalence tests
        compare these copies; ``allocation_seconds`` collapses onto the
        simulated component.
        """

        return replace(self, wall_seconds=0.0, allocation_seconds=self.sim_seconds)


def simulated_network_factory(seed: int = 0) -> Callable[[EventScheduler], CommunicationsLayer]:
    """The paper's single-JVM simulated network: zero latency, fully connected."""

    def factory(scheduler: EventScheduler) -> CommunicationsLayer:
        return SimulatedNetwork(scheduler, base_latency=0.0, jitter=0.0, seed=seed)

    return factory


def adhoc_network_factory(
    seed: int = 0,
    radio_range: float = 150.0,
    jitter: float = 0.0005,
    multi_hop: bool = False,
    vectorized: bool | None = None,
) -> Callable[[EventScheduler], CommunicationsLayer]:
    """An 802.11g-like ad hoc wireless network.

    The default (``multi_hop=False``) matches the paper's Figure 6 setup of
    a few laptops in mutual radio range; pass ``multi_hop=True`` for the
    scaled scenarios where hundreds of hosts relay for each other over
    AODV-style routes.  ``vectorized`` selects the batched NumPy geometry
    kernels (``None``: automatic when NumPy is available; ``False``: the
    scalar per-host loops, the kernel-equivalence baseline).
    """

    def factory(scheduler: EventScheduler) -> CommunicationsLayer:
        return AdHocWirelessNetwork(
            scheduler,
            radio_range=radio_range,
            jitter=jitter,
            multi_hop=multi_hop,
            seed=seed,
            vectorized=vectorized,
        )

    return factory


def build_trial_community(
    workload: GeneratedWorkload,
    num_hosts: int,
    seed: int,
    network_factory: Callable[[EventScheduler], CommunicationsLayer] | None = None,
    mobility_factory: Callable[[int], "MobilityModel | Point"] | None = None,
    config: HostConfig = HostConfig(),
    **options: object,
) -> Community:
    """Set up a community for one trial (fragments/services dealt out randomly).

    Every host runs ``config`` with ``options`` overriding its fields (see
    :class:`~repro.host.config.HostConfig`), so ablations can sweep a
    solver or a protocol with no other change to the procedure.
    ``mobility_factory`` maps a host index to its placement (a fixed
    :class:`~repro.mobility.geometry.Point` or a mobility model); the
    default is the paper-style line of hosts 20 m apart.  The scaled ad hoc
    scenarios use it to scatter hundreds of mobile hosts over a site.
    """

    if num_hosts < 1:
        raise ValueError("a trial needs at least one host")
    if options:
        config = replace(config, **options)
    rng = derive_rng(seed, "partition", workload.num_tasks, num_hosts)
    fragment_groups = workload.partition_fragments(num_hosts, rng)
    service_groups = workload.partition_services(num_hosts, rng)
    community = Community(network_factory=network_factory)
    for index in range(num_hosts):
        mobility = (
            mobility_factory(index)
            if mobility_factory is not None
            else Point(20.0 * index, 0.0)
        )
        community.add_host(
            f"host-{index}",
            fragments=fragment_groups[index],
            services=service_groups[index],
            mobility=mobility,
            config=config,
        )
    return community


def run_allocation_trial(
    workload: GeneratedWorkload,
    num_hosts: int,
    specification: Specification,
    seed: int,
    network_factory: Callable[[EventScheduler], CommunicationsLayer] | None = None,
    initiator_index: int = 0,
    solver: Solver | str | None = None,
    mobility_factory: Callable[[int], "MobilityModel | Point"] | None = None,
) -> TrialResult:
    """Run one construction+allocation trial and return its measurements."""

    community = build_trial_community(
        workload,
        num_hosts,
        seed,
        network_factory=network_factory,
        solver=solver,
        mobility_factory=mobility_factory,
    )
    initiator = f"host-{initiator_index % num_hosts}"
    workspace = community.submit_specification(initiator, specification)
    community.run_until_allocated(workspace, max_sim_seconds=3_600.0)
    return trial_result_from_workspace(community, workspace)


def run_churn_trial(
    workload: GeneratedWorkload,
    num_hosts: int,
    specification: Specification,
    seed: int,
    network_factory: Callable[[EventScheduler], CommunicationsLayer] | None = None,
    initiator_index: int = 0,
    mobility_factory: Callable[[int], "MobilityModel | Point"] | None = None,
    drop_probability: float = 0.1,
    duplicate_probability: float = 0.02,
    extra_delay_mean: float = 0.0,
    num_crashes: int = 2,
    crash_window: tuple[float, float] = (10.0, 120.0),
    outage: float = 60.0,
    max_sim_seconds: float = 3_600.0,
    crashes: "tuple[HostCrash, ...] | None" = None,
    config: HostConfig = HostConfig(
        fault_injection=True, enable_recovery=True, max_repair_attempts=6
    ),
    **options: object,
) -> TrialResult:
    """Run one end-to-end trial on a hostile network and measure survival.

    Every host runs ``config`` (by default with ``fault_injection`` and
    recovery on), with ``options`` overriding its fields, behind a
    seeded :class:`~repro.net.faults.FaultPlane`: every link drops,
    duplicates, and delays messages per the given probabilities, and
    ``num_crashes`` non-initiator hosts fail-stop at times drawn from
    ``crash_window``, restarting ``outage`` simulated seconds later.  The
    trial pumps the scheduler to quiescence (bounded by
    ``max_sim_seconds``), follows the workflow's repair chain to its final
    revision, and reports the churn counters alongside the usual
    measurements.  Churn trials default to a deeper repair ladder
    (``max_repair_attempts=6``) than clean runs: a dropped label delivery
    costs one repair round, so survival probability compounds per round.
    ``durability`` (e.g. ``"memory"``) additionally gives every host a
    durable state plane, so restarted victims resume their commitments and
    in-flight invocations instead of riding the full repair ladder;
    ``durable_outputs=False`` drops the tier-2 output journaling from that
    plane (restarted producers go silent again), isolating what journaled
    publications buy.  ``crashes`` replaces the randomly sampled fail-stop
    schedule with an explicit one (see :func:`plan_producer_crash`);
    ``num_crashes``/``crash_window``/``outage`` are ignored when it is
    given.
    Everything is a pure function of ``seed``: re-running
    with the same arguments reproduces the same faults and the same result.
    """

    community = build_trial_community(
        workload,
        num_hosts,
        seed,
        network_factory=network_factory,
        mobility_factory=mobility_factory,
        config=config,
        **options,
    )
    initiator = f"host-{initiator_index % num_hosts}"
    if crashes is None:
        churn_rng = derive_rng(seed, "churn", num_hosts, num_crashes)
        candidates = [
            host_id for host_id in community.host_ids if host_id != initiator
        ]
        victims = sample_without_replacement(
            churn_rng, candidates, min(num_crashes, len(candidates))
        )
        sampled = []
        for victim in victims:
            crash_at = churn_rng.uniform(*crash_window)
            sampled.append(
                HostCrash(
                    host_id=victim,
                    crash_at=crash_at,
                    restart_at=crash_at + outage,
                )
            )
        crashes = tuple(sampled)
    plane = FaultPlane(
        seed=derive_seed(seed, "faults", num_hosts),
        default_policy=LinkFaultPolicy(
            drop_probability=drop_probability,
            duplicate_probability=duplicate_probability,
            extra_delay_mean=extra_delay_mean,
        ),
        crashes=tuple(crashes),
    )
    community.install_fault_plane(plane)

    workspace = community.submit_specification(initiator, specification)
    community.run_idle(max_sim_seconds=max_sim_seconds)

    manager = community.host(initiator).workflow_manager
    final = manager.final_workspace(workspace.workflow_id) or workspace
    result = trial_result_from_workspace(community, final)

    recovered = final is not workspace and final.phase is WorkflowPhase.COMPLETED
    recovery_seconds = 0.0
    if recovered:
        first_failure = workspace.timestamps.get("failed")
        completed = final.timestamps.get("completed")
        if first_failure is not None and completed is not None:
            recovery_seconds = completed.sim_time - first_failure.sim_time
    retries = sum(
        host.auction_manager.retries + host.workflow_manager.discovery_retries
        for host in community
    )
    reauctions = sum(host.auction_manager.reauctions for host in community)
    invocations_resumed = sum(
        host.execution_manager.invocations_resumed for host in community
    )
    labels_replayed = sum(
        host.execution_manager.labels_replayed for host in community
    )
    return replace(
        result,
        succeeded=final.phase is WorkflowPhase.COMPLETED,
        hosts_crashed=community.hosts_crashed,
        messages_faulted=plane.statistics.faulted,
        retries=retries,
        reauctions=reauctions,
        workflows_recovered=1 if recovered else 0,
        recovery_seconds=recovery_seconds,
        invocations_resumed=invocations_resumed,
        workflows_resumed=community.workflows_resumed,
        labels_replayed=labels_replayed,
    )


def plan_producer_crash(
    workload: GeneratedWorkload,
    num_hosts: int,
    specification: Specification,
    seed: int,
    network_factory: Callable[[EventScheduler], CommunicationsLayer] | None = None,
    initiator_index: int = 0,
    mobility_factory: Callable[[int], "MobilityModel | Point"] | None = None,
    lead: float = 1.0,
    outage: float = 25.0,
    max_sim_seconds: float = 3_600.0,
    config: HostConfig = HostConfig(fault_injection=True, enable_recovery=True),
    **options: object,
) -> tuple[HostCrash, ...]:
    """Derive a crash schedule that kills a mid-execution producer.

    Runs a crash-free probe of the same seeded trial to learn when the
    earliest cross-host label is published and by whom, then returns two
    fail-stops for :func:`run_churn_trial`'s ``crashes`` parameter: the
    label's *consumer* dies ``lead`` seconds before publication (the
    delivery is sent into the void), the *producer* ``lead`` seconds after
    (its in-memory publication cache dies with it).  The producer restarts
    before the consumer, so by the time the resumed consumer asks for the
    missing label the producer is back — with output journaling on it
    answers from its restored cache and the original revision completes;
    with it off the request goes unanswered and the initiator rides the
    repair ladder.  The probe changes nothing the real run observes before
    the first crash, so the planned times line up exactly.  Its hosts run
    ``config`` (fault-hardened with recovery on) with ``options``
    overriding its fields.
    """

    if outage <= 2.0 * lead:
        raise ValueError("outage must exceed 2*lead so restarts stay ordered")
    community = build_trial_community(
        workload,
        num_hosts,
        seed,
        network_factory=network_factory,
        mobility_factory=mobility_factory,
        config=config,
        **options,
    )
    plane = FaultPlane(
        seed=derive_seed(seed, "faults", num_hosts),
        default_policy=LinkFaultPolicy(
            drop_probability=0.0, duplicate_probability=0.0, extra_delay_mean=0.0
        ),
    )
    community.install_fault_plane(plane)
    initiator = f"host-{initiator_index % num_hosts}"
    community.submit_specification(initiator, specification)
    community.run_idle(max_sim_seconds=max_sim_seconds)

    best: tuple[float, str, str] | None = None
    for host in community:
        if host.host_id == initiator:
            continue
        for outcome in host.execution_manager.outcomes:
            if not outcome.succeeded:
                continue
            destinations = outcome.commitment.output_destinations
            for label, receivers in destinations.items():
                for consumer in receivers:
                    if consumer in (host.host_id, initiator):
                        continue
                    if best is None or outcome.completed_at < best[0]:
                        best = (outcome.completed_at, host.host_id, consumer)
    if best is None:
        raise ValueError(
            "probe trial produced no cross-host label between non-initiator "
            "hosts; nothing to target"
        )
    published_at, producer, consumer = best
    return (
        HostCrash(
            host_id=consumer,
            crash_at=published_at - lead,
            restart_at=published_at + outage + lead,
        ),
        HostCrash(
            host_id=producer,
            crash_at=published_at + lead,
            restart_at=published_at + outage,
        ),
    )


def trial_result_from_workspace(
    community: Community, workspace: Workspace
) -> TrialResult:
    """Extract the measurements of a finished (or failed) trial."""

    timing = workspace.time_to_allocation()
    succeeded = workspace.is_allocated and workspace.phase in (
        WorkflowPhase.EXECUTING,
        WorkflowPhase.COMPLETED,
    )
    sim_seconds, wall_seconds = timing if timing is not None else (0.0, 0.0)
    stats = community.network.statistics
    workflow = workspace.workflow
    construction = workspace.construction_statistics
    outcome = workspace.allocation_outcome
    winners = len(set(outcome.allocation.values())) if outcome is not None else 0
    return TrialResult(
        succeeded=succeeded,
        allocation_seconds=wall_seconds + sim_seconds,
        wall_seconds=wall_seconds,
        sim_seconds=sim_seconds,
        workflow_tasks=len(workflow.task_names) if workflow is not None else 0,
        messages_sent=stats.messages_sent,
        bytes_sent=stats.bytes_sent,
        fragments_collected=workspace.fragments_collected,
        failure_reason=workspace.failure_reason,
        solver=construction.solver if construction else "",
        nodes_recolored=construction.nodes_recolored if construction else 0,
        cache_hits=construction.cache_hits if construction else 0,
        distinct_winners=winners,
        fragments_reused=workspace.fragments_reused,
        remotes_skipped=workspace.remotes_skipped,
        fragment_messages=stats.kind_count("FragmentQuery", "FragmentResponse"),
        fragment_bytes=stats.kind_bytes("FragmentQuery", "FragmentResponse"),
        unexpected_labels=sum(
            host.execution_manager.unexpected_labels for host in community
        ),
    )
