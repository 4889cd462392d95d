"""The benchmark's workloads: seeded inputs, one trial each, output checks.

Every input (supergraphs, specifications, community deals, crash
schedules) is generated here from the workload seed; the program under test
only ever receives those generated inputs through its public API.  A trial
is timed from outside around public calls:

* ``trial`` — from :func:`build_trial_community` to the trial's end state
  (allocated, or on ``churn`` the final revision idle at COMPLETED/FAILED);
* ``alloc`` — from :meth:`Community.submit_specification` until
  :meth:`Community.run_until_allocated` returns with the workspace
  allocated: the interval the paper's Figures 4-6 measure.

Each trial also yields an *exact* record — outcome, message and byte
counts, simulated allocation time, the allocation itself — which is a pure
function of the trial's inputs.  Re-running a trial must reproduce it bit
for bit; :func:`check_repeat` turns a mismatch into a failed check.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "repro").is_dir():
    raise ImportError(f"no program source at {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.specification import Specification  # noqa: E402
from repro.experiments import (  # noqa: E402
    FIGURE4_HOST_COUNTS,
    FIGURE5_TASK_COUNTS,
    FIGURE6_TASK_COUNTS,
    TrialRunner,
    adhoc_network_factory,
    build_trial_community,
    simulated_network_factory,
    sweep_tasks,
)
from repro.experiments.runner import workload_for  # noqa: E402
from repro.host.workspace import WorkflowPhase  # noqa: E402
from repro.mobility.geometry import square_site  # noqa: E402
from repro.mobility.models import RandomWaypointMobility  # noqa: E402
from repro.net.faults import FaultPlane, HostCrash, LinkFaultPolicy  # noqa: E402
from repro.workloads.supergraph_gen import (  # noqa: E402
    GeneratedWorkload,
    RandomSupergraphWorkload,
)

#: Simulated-time bound of every trial; a workflow still running past it
#: counts as hung.
MAX_SIM_SECONDS = 3_600.0

#: The supergraphs are fixed, as in the paper's Section 5 ("from this
#: single supergraph we can then draw a large number of guaranteed-
#: satisfiable specifications"); the run's seed draws everything else —
#: specifications, host deals, initiators, mobility, faults and crashes.
#: A random supergraph per seed made the sweep's mix of reachable path
#: lengths, and with it every timing, differ from seed to seed by ~10%.
SUPERGRAPH_SEED = 2009

#: Paper sweep points are each drawn this many times per round.
PAPER_REPETITIONS = 3

# Paper Section 5 sweeps (Figures 4-6): path lengths per figure.
FIGURE4_PATHS = tuple(range(2, 23, 2))
FIGURE5_PATHS = tuple(range(2, 15, 2))
FIGURE6_PATHS = tuple(range(2, 21, 2))

# mobile: the 100-host point of run_adhoc_scaling.
MOBILE_HOSTS = 100
MOBILE_TASKS = 50
MOBILE_PATH = 4
#: One round is enough trials for a supported p90 (see summary.py).
MOBILE_TRIALS = 104

# churn: run_churn_trial's default hostile network on a durable community
# whose 60-s tasks are still running when the crashes land.
CHURN_HOSTS = 20
CHURN_TASKS = 30
CHURN_PATH = 4
CHURN_TASK_SECONDS = 60.0
CHURN_DROP = 0.1
CHURN_DUPLICATE = 0.02
CHURN_CRASHES = 2
CHURN_CRASH_WINDOW = (10.0, 120.0)
CHURN_OUTAGE = 60.0
CHURN_REPAIR_ATTEMPTS = 6
CHURN_TRIALS = 400

# sweep: the Figure 5 trial list through the process-pool runner.
SWEEP_WORKERS = 2
SWEEP_RUNS = 2


@dataclass(frozen=True)
class TrialInput:
    """One generated trial: everything the program is handed."""

    kind: str
    workload: GeneratedWorkload
    num_hosts: int
    specification: Specification
    seed: int
    initiator: str
    crashes: tuple[HostCrash, ...] = ()
    fault_seed: int = 0


@dataclass
class Execution:
    """One trial's timed part: host seconds, and the objects it left."""

    trial_s: float
    alloc_s: float | None
    sim_alloc: float | None
    community: object
    workspace: object


@dataclass
class TrialOutcome:
    """One trial's checked result.  ``exact`` must repeat bit for bit."""

    completed: bool
    exact: tuple
    problems: list[str] = field(default_factory=list)
    vectorized: bool = False


@dataclass
class Scenario:
    """A workload: one round of generated trials, how to run and judge one."""

    name: str
    trials: list[TrialInput]
    warmup: list[TrialInput]
    execute: Callable[[TrialInput], Execution]
    judge: Callable[[TrialInput, Execution], TrialOutcome]


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so inputs do not depend on
    # PYTHONHASHSEED.
    return random.Random(f"perfbench/{workload}/{seed}")


def _draw(
    rng: random.Random,
    kind: str,
    workload: GeneratedWorkload,
    num_hosts: int,
    path_length: int,
) -> TrialInput | None:
    specification = workload.path_specification(path_length, rng)
    if specification is None:
        return None
    return TrialInput(
        kind=kind,
        workload=workload,
        num_hosts=num_hosts,
        specification=specification,
        seed=rng.getrandbits(32),
        initiator=f"host-{rng.randrange(num_hosts)}",
    )


# -- paper -----------------------------------------------------------------
def paper_inputs(seed: int) -> tuple[list[TrialInput], list[TrialInput]]:
    """Figures 4, 5 and 6 at the paper's scale, each point drawn 3 times."""

    rng = _rng("paper", seed)
    sizes = sorted({100, *FIGURE5_TASK_COUNTS, *FIGURE6_TASK_COUNTS})
    generator = RandomSupergraphWorkload(seed=SUPERGRAPH_SEED)
    workloads = {size: generator.generate(size) for size in sizes}
    reach = {size: workloads[size].max_path_length() for size in sizes}
    points = [
        *(("fig4", 100, hosts, path)
          for hosts in FIGURE4_HOST_COUNTS for path in FIGURE4_PATHS),
        *(("fig5", size, 2, path)
          for size in FIGURE5_TASK_COUNTS for path in FIGURE5_PATHS),
        *(("fig6", size, 4, path)
          for size in FIGURE6_TASK_COUNTS for path in FIGURE6_PATHS),
    ]
    trials: list[TrialInput | None] = [
        _draw(rng, kind, workloads[size], hosts, path)
        for _ in range(PAPER_REPETITIONS)
        for kind, size, hosts, path in points
        if path <= reach[size]
    ]
    drawn = [trial for trial in trials if trial is not None]
    # Shuffled, so each figure's points are spread over the whole round and
    # a slow stretch of the machine hits every configuration alike.
    rng.shuffle(drawn)
    warmup = [
        _draw(rng, kind, workloads[size], hosts, 2)
        for kind, size, hosts in (("fig4", 100, 15), ("fig5", 500, 2), ("fig6", 100, 4))
    ]
    return drawn, [trial for trial in warmup if trial is not None]


def _network_for(trial: TrialInput):
    if trial.kind == "fig6":
        return adhoc_network_factory(trial.seed)
    if trial.kind == "mobile":
        return adhoc_network_factory(trial.seed, multi_hop=True)
    return simulated_network_factory(trial.seed)


def _mobility_for(trial: TrialInput):
    if trial.kind != "mobile":
        return None
    # The site grows with the population so the mean radio degree stays
    # near 20, as in run_adhoc_scaling.
    site = square_site(60.0 * math.sqrt(trial.num_hosts))
    return lambda index: RandomWaypointMobility(site, seed=trial.seed * 256 + index)


def allocation_problems(community, workspace, specification) -> list[str]:
    """Why an allocated trial's output is wrong (empty when it is right)."""

    if not workspace.is_allocated:
        return [f"not allocated: {workspace.phase.value} {workspace.failure_reason}"]
    workflow = workspace.workflow
    if workflow is None:
        return ["allocated without a workflow"]
    problems = [f"invalid workflow: {p}" for p in workflow.validation_errors()]
    if not workflow.satisfies(specification):
        problems.append("workflow does not satisfy its specification")
    allocation = workspace.allocation_outcome.allocation
    if set(allocation) != set(workflow.task_names):
        problems.append("allocated tasks differ from the workflow's tasks")
    hosts = set(community.host_ids)
    strangers = sorted(set(allocation.values()) - hosts)
    if strangers:
        problems.append(f"tasks allocated outside the community: {strangers}")
    return problems


def execute_allocation(trial: TrialInput) -> Execution:
    """Build the community, submit, and pump until allocated (paper, mobile)."""

    started = time.perf_counter()
    community = build_trial_community(
        trial.workload,
        trial.num_hosts,
        trial.seed,
        network_factory=_network_for(trial),
        mobility_factory=_mobility_for(trial),
    )
    submitted = time.perf_counter()
    workspace = community.submit_specification(trial.initiator, trial.specification)
    community.run_until_allocated(workspace, max_sim_seconds=MAX_SIM_SECONDS)
    finished = time.perf_counter()
    allocated = workspace.is_allocated
    return Execution(
        trial_s=finished - started,
        alloc_s=finished - submitted if allocated else None,
        sim_alloc=community.clock.now() if allocated else None,
        community=community,
        workspace=workspace,
    )


def judge_allocation(trial: TrialInput, run: Execution) -> TrialOutcome:
    """Allocated with a valid, satisfying workflow on community hosts.

    On ``mobile`` a clean failure is a correct outcome too: a moving
    multi-hop community can be partitioned, so the knowledge the initiator
    can reach may not satisfy the specification.  It counts against
    ``completion_rate``, not as a failed check.
    """

    workspace = run.workspace
    partitioned = (
        trial.kind == "mobile"
        and workspace.phase is WorkflowPhase.FAILED
        and bool(workspace.failure_reason)
    )
    problems = (
        []
        if partitioned
        else allocation_problems(run.community, workspace, trial.specification)
    )
    allocated = workspace.is_allocated and not problems
    stats = run.community.network.statistics
    allocation = workspace.allocation_outcome
    return TrialOutcome(
        completed=allocated,
        problems=problems,
        exact=(
            allocated,
            stats.messages_sent,
            stats.bytes_sent,
            run.sim_alloc,
            tuple(sorted(allocation.allocation.items())) if allocation else (),
        ),
        vectorized=bool(getattr(run.community.network, "vectorized", False)),
    )


# -- mobile ----------------------------------------------------------------
def mobile_inputs(seed: int) -> tuple[list[TrialInput], list[TrialInput]]:
    """Path-4 trials over 100 random-waypoint hosts on multi-hop 802.11g."""

    rng = _rng("mobile", seed)
    workload = RandomSupergraphWorkload(seed=SUPERGRAPH_SEED).generate(MOBILE_TASKS)
    trials = [
        _draw(rng, "mobile", workload, MOBILE_HOSTS, MOBILE_PATH)
        for _ in range(MOBILE_TRIALS + 1)
    ]
    drawn = [trial for trial in trials if trial is not None]
    return drawn[1:], drawn[:1]


# -- churn -----------------------------------------------------------------
def churn_inputs(seed: int) -> tuple[list[TrialInput], list[TrialInput]]:
    """Hostile-network trials with two crash/restart cycles each."""

    rng = _rng("churn", seed)
    workload = (
        RandomSupergraphWorkload(seed=SUPERGRAPH_SEED)
        .generate(CHURN_TASKS)
        .with_task_durations(CHURN_TASK_SECONDS)
    )
    trials = [
        _with_crashes(trial, rng)
        for trial in (
            _draw(rng, "churn", workload, CHURN_HOSTS, CHURN_PATH)
            for _ in range(CHURN_TRIALS + 5)
        )
        if trial is not None
    ]
    return trials[5:], trials[:5]


def _with_crashes(trial: TrialInput, rng: random.Random) -> TrialInput:
    candidates = [
        f"host-{index}"
        for index in range(trial.num_hosts)
        if f"host-{index}" != trial.initiator
    ]
    crashes = []
    for victim in rng.sample(candidates, CHURN_CRASHES):
        crash_at = rng.uniform(*CHURN_CRASH_WINDOW)
        crashes.append(
            HostCrash(host_id=victim, crash_at=crash_at, restart_at=crash_at + CHURN_OUTAGE)
        )
    return TrialInput(
        kind=trial.kind,
        workload=trial.workload,
        num_hosts=trial.num_hosts,
        specification=trial.specification,
        seed=trial.seed,
        initiator=trial.initiator,
        crashes=tuple(crashes),
        fault_seed=rng.getrandbits(32),
    )


def execute_churn(trial: TrialInput) -> Execution:
    """Run a durable community on a faulty network until it is idle."""

    started = time.perf_counter()
    community = build_trial_community(
        trial.workload,
        trial.num_hosts,
        trial.seed,
        network_factory=simulated_network_factory(trial.seed),
        fault_injection=True,
        enable_recovery=True,
        max_repair_attempts=CHURN_REPAIR_ATTEMPTS,
        durability="memory",
    )
    community.install_fault_plane(
        FaultPlane(
            seed=trial.fault_seed,
            default_policy=LinkFaultPolicy(
                drop_probability=CHURN_DROP,
                duplicate_probability=CHURN_DUPLICATE,
                extra_delay_mean=0.0,
            ),
            crashes=trial.crashes,
        )
    )
    submitted = time.perf_counter()
    workspace = community.submit_specification(trial.initiator, trial.specification)
    community.run_until_allocated(workspace, max_sim_seconds=MAX_SIM_SECONDS)
    allocated_at = time.perf_counter()
    allocated = workspace.is_allocated
    sim_alloc = community.clock.now() if allocated else None
    community.run_idle(max_sim_seconds=MAX_SIM_SECONDS - community.clock.now())
    finished = time.perf_counter()
    return Execution(
        trial_s=finished - started,
        alloc_s=allocated_at - submitted if allocated else None,
        sim_alloc=sim_alloc,
        community=community,
        workspace=workspace,
    )


def judge_churn(trial: TrialInput, run: Execution) -> TrialOutcome:
    """COMPLETED with every task done, or FAILED with a reason, and idle."""

    community = run.community
    manager = community.host(trial.initiator).workflow_manager
    final = manager.final_workspace(run.workspace.workflow_id) or run.workspace
    problems = []
    if final.phase is WorkflowPhase.COMPLETED:
        if not final.all_tasks_completed:
            problems.append("COMPLETED with tasks still outstanding")
    elif final.phase is WorkflowPhase.FAILED:
        if not final.failure_reason:
            problems.append("FAILED without a reason")
    else:
        problems.append(f"still {final.phase.value} at the simulated-time bound")
    stats = community.network.statistics
    return TrialOutcome(
        completed=final.phase is WorkflowPhase.COMPLETED and not problems,
        exact=(
            final.phase.value,
            stats.messages_sent,
            stats.bytes_sent,
            run.sim_alloc,
            community.clock.now(),
        ),
        problems=problems,
    )


def check_repeat(first: TrialOutcome, again: TrialOutcome) -> list[str]:
    """A repeated trial must reproduce the first run's exact record."""

    if first.exact != again.exact:
        return [f"repeat differs: {first.exact[:4]} then {again.exact[:4]}"]
    return []


INLINE = {
    "paper": (paper_inputs, execute_allocation, judge_allocation),
    "mobile": (mobile_inputs, execute_allocation, judge_allocation),
    "churn": (churn_inputs, execute_churn, judge_churn),
}


def inline_scenario(name: str, seed: int) -> Scenario:
    make_inputs, execute, judge = INLINE[name]
    trials, warmup = make_inputs(seed)
    return Scenario(name, trials, warmup, execute, judge)


def program_counts(community) -> dict[str, int]:
    """Counters the program keeps per host, summed over the live hosts."""

    hosts = list(community)
    return {
        "allocation.retries": sum(h.auction_manager.retries for h in hosts),
        "allocation.reauctions": sum(h.auction_manager.reauctions for h in hosts),
        "execution.unexpected_labels": sum(
            h.execution_manager.unexpected_labels for h in hosts
        ),
        "durability.invocations_resumed": sum(
            h.execution_manager.invocations_resumed for h in hosts
        ),
    }


# -- sweep -----------------------------------------------------------------
def sweep_inputs(seed: int) -> list:
    """The Figure 5 trial list, as ``run_figure5`` builds it."""

    workload_seed = _rng("sweep", seed).getrandbits(32)
    tasks = []
    for size in FIGURE5_TASK_COUNTS:
        tasks.extend(
            sweep_tasks(
                series=f"{size} task",
                num_tasks=size,
                num_hosts=2,
                path_lengths=FIGURE5_PATHS,
                runs=SWEEP_RUNS,
                seed=workload_seed,
                max_path_length=workload_for(workload_seed, size).max_path_length(),
                network="simulated",
            )
        )
    return tasks


def sweep_runner() -> TrialRunner:
    return TrialRunner(max_workers=SWEEP_WORKERS, timing="wall")


def sweep_problems(tasks, outcomes) -> list[str]:
    """Every task returns an allocated outcome, in task order."""

    if len(outcomes) != len(tasks):
        return [f"{len(outcomes)} outcomes for {len(tasks)} tasks"]
    problems = []
    for index, (task, outcome) in enumerate(zip(tasks, outcomes)):
        if outcome.task != task:
            problems.append(f"outcome {index} is for another task")
        elif outcome.result is None or not outcome.result.succeeded:
            problems.append(f"trial {index} ({task.series}, path {task.path_length}) failed")
    return problems
