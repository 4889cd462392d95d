"""A parallel experiment engine for independent ``(seed, config)`` trials.

The paper averages one thousand runs per figure point; every trial is an
independent discrete-event simulation, so the sweep is embarrassingly
parallel.  This module supplies the fan-out machinery the figure and
ablation drivers run on:

* :class:`TrialTask` — a *picklable, declarative* description of one trial:
  workload size and seed, host count, path length, repetition index,
  network kind, placement, and auction policy.  Everything a worker
  needs to reconstruct the trial from scratch, so no live objects ever
  cross a process boundary.
* :func:`execute_trial` — turns a task into a
  :class:`~repro.experiments.trials.TrialResult`.  All randomness is
  derived from the task's fields via :func:`~repro.sim.randomness.derive_seed`,
  so a task executes identically wherever and in whatever order it runs.
* :class:`TrialRunner` — fans a task list across a
  ``ProcessPoolExecutor`` and returns outcomes *in task order*.  With
  ``parallel=False`` (or a single worker, or a pool that fails to start) it
  runs the exact same code path in-process; because per-trial seeding is
  order-independent, sequential and parallel execution produce the same
  results for the same tasks.

Determinism contract: everything in a ``TrialResult`` except the wall-clock
components (``wall_seconds`` and its contribution to
``allocation_seconds``) is a pure function of the task.  ``timing="sim"``
zeroes those components at the source, making the outcomes byte-identical
across runs, schedulers and interpreter hash seeds — the equivalence tests
run in that mode, and so can any experiment that only cares about simulated
time.

Shared inputs: a parallel run first publishes the sweep's distinct
generated workloads — its only large, read-mostly input — into one
zlib-compressed :mod:`multiprocessing.shared_memory` segment
(:mod:`repro.experiments.shared_inputs`); each worker attaches once and
fills its per-process workload cache from the shared buffer instead of
regenerating every workload from its seed.  Sharing is purely a cache
warm-up, so outcomes are byte-identical with it or without it: when
publishing fails (no usable shared memory) the workers regenerate from
seeds and the run goes on unshared.
"""

from __future__ import annotations

import math
import os
import pickle
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from ..allocation.bids import (
    BidSelectionPolicy,
    EarliestStartPolicy,
    LeastTravelPolicy,
    RandomPolicy,
    SpecializationPolicy,
)
from ..analysis.reporting import FigureResult
from ..analysis.stats import SampleSummary, summarise
from ..mobility.geometry import Point, square_site
from ..mobility.models import MobilityModel, RandomWaypointMobility
from ..sim.randomness import DEFAULT_SEED, derive_rng, derive_seed
from ..workloads.supergraph_gen import GeneratedWorkload, RandomSupergraphWorkload
from .shared_inputs import SharedWorkloadSegment, attach_workloads, publish_workloads
from .trials import (
    TrialResult,
    adhoc_network_factory,
    build_trial_community,
    simulated_network_factory,
    trial_result_from_workspace,
)

NETWORK_KINDS = ("simulated", "adhoc", "adhoc-multihop")
MOBILITY_KINDS = ("line", "scatter", "waypoint")


@dataclass(frozen=True)
class TrialTask:
    """One trial, described by plain data (safe to pickle to a worker).

    ``series``/``x`` are aggregation coordinates (figure series label and
    x-axis value); the remaining fields parameterise the trial itself.
    """

    series: str
    x: int
    num_tasks: int
    num_hosts: int
    path_length: int
    repetition: int = 0
    seed: int = DEFAULT_SEED
    workload_seed: int | None = None
    network: str = "simulated"
    mobility: str = "line"
    policy: str = ""
    initiator_index: int = 0
    cohort: str = ""
    """Seed-derivation label; defaults to ``series``.  Tasks that share a
    cohort draw the same specifications and community deals even when their
    series differ — ablations use this to hold everything except the
    variable under test fixed across series."""

    @property
    def seed_label(self) -> str:
        return self.cohort or self.series

    def __post_init__(self) -> None:
        if self.network not in NETWORK_KINDS:
            raise ValueError(f"unknown network kind {self.network!r}")
        if self.mobility not in MOBILITY_KINDS:
            raise ValueError(f"unknown mobility kind {self.mobility!r}")


@dataclass(frozen=True)
class TrialOutcome:
    """A task paired with its result (``None`` when no spec could be drawn)."""

    task: TrialTask
    result: TrialResult | None

    @property
    def succeeded(self) -> bool:
        return self.result is not None and self.result.succeeded


# Workload generation is deterministic in (seed, num_tasks), so each worker
# process regenerates and caches its own copies instead of shipping the
# (large) supergraph over the pipe.
_WORKLOADS: dict[tuple[int, int], GeneratedWorkload] = {}


def workload_for(seed: int, num_tasks: int) -> GeneratedWorkload:
    key = (seed, num_tasks)
    if key not in _WORKLOADS:
        _WORKLOADS[key] = RandomSupergraphWorkload(seed=seed).generate(num_tasks)
    return _WORKLOADS[key]


# Shared-memory segments this process has already attached (successfully or
# not): each worker reads a published segment at most once.
_ATTACHED_SEGMENTS: set[str] = set()


def _execute_trial_attached(
    task: TrialTask, timing: str = "wall", segment: str = ""
) -> tuple[TrialOutcome, bool]:
    """Worker entry point for shared-input runs.

    Warms the per-process workload cache from the published segment (once
    per worker per segment), then runs the task exactly as
    :func:`execute_trial` would.  Returns ``(outcome, attached)``: the flag
    feeds the parent's ``workers_attached`` counter and never touches the
    outcome, so shared and unshared runs stay byte-identical.
    """

    attached = False
    if segment and segment not in _ATTACHED_SEGMENTS:
        _ATTACHED_SEGMENTS.add(segment)  # never retry, even after a failure
        attached = attach_workloads(segment, _WORKLOADS)
    return execute_trial(task, timing=timing), attached


def _policy_for(name: str, seed: int) -> BidSelectionPolicy:
    if name == "specialization":
        return SpecializationPolicy()
    if name == "earliest-start":
        return EarliestStartPolicy()
    if name == "least-travel":
        return LeastTravelPolicy()
    if name == "random":
        return RandomPolicy(seed=seed)
    raise ValueError(f"unknown auction policy {name!r}")


def _network_factory_for(task: TrialTask):
    if task.network == "simulated":
        return simulated_network_factory(task.seed)
    if task.network == "adhoc":
        return adhoc_network_factory(task.seed)
    return adhoc_network_factory(task.seed, multi_hop=True)


def _mobility_factory_for(
    task: TrialTask, trial_seed: int
) -> Callable[[int], "MobilityModel | Point"] | None:
    if task.mobility == "line":
        return None  # build_trial_community's default: hosts 20 m apart
    # Scale the site with the population so the mean radio degree stays
    # roughly constant (~20 neighbours at the default 150 m range).
    site = square_site(60.0 * math.sqrt(task.num_hosts))
    if task.mobility == "scatter":

        def scatter(index: int) -> Point:
            rng = derive_rng(trial_seed, "scatter", index)
            return site.random_point(rng)

        return scatter

    def waypoint(index: int) -> MobilityModel:
        return RandomWaypointMobility(
            site, seed=derive_seed(trial_seed, "waypoint", index)
        )

    return waypoint


def execute_trial(task: TrialTask, timing: str = "wall") -> TrialOutcome:
    """Run one task to completion (the worker entry point).

    Every random stream — specification draw, fragment/service partition,
    mobility, network jitter — is derived from the task's own fields, so
    the outcome does not depend on which process runs the task or what ran
    before it.
    """

    workload_seed = task.seed if task.workload_seed is None else task.workload_seed
    workload = workload_for(workload_seed, task.num_tasks)
    spec_rng = derive_rng(
        task.seed,
        "runner-spec",
        task.seed_label,
        task.num_tasks,
        task.num_hosts,
        task.path_length,
        task.repetition,
    )
    specification = workload.path_specification(task.path_length, spec_rng)
    if specification is None:
        return TrialOutcome(task=task, result=None)
    trial_seed = derive_seed(
        task.seed, "runner-trial", task.seed_label, task.path_length, task.repetition
    )
    community = build_trial_community(
        workload,
        task.num_hosts,
        seed=trial_seed,
        network_factory=_network_factory_for(task),
        mobility_factory=_mobility_factory_for(task, trial_seed),
    )
    if task.policy:
        policy = _policy_for(task.policy, trial_seed)
        for host in community:
            host.auction_manager.policy = policy
    initiator = f"host-{task.initiator_index % task.num_hosts}"
    workspace = community.submit_specification(initiator, specification)
    community.run_until_allocated(workspace, max_sim_seconds=3_600.0)
    result = trial_result_from_workspace(community, workspace)
    if timing == "sim":
        result = result.deterministic_copy()
    return TrialOutcome(task=task, result=result)


class TrialRunner:
    """Run independent trials, optionally fanned across worker processes.

    Parameters
    ----------
    max_workers:
        Process count for the pool; defaults to ``os.cpu_count()``.
    parallel:
        ``None`` (default) auto-selects: parallel when more than one worker
        is available.  ``False`` forces in-process sequential execution —
        the same code path, so results match the parallel run exactly (see
        the module's determinism contract).
    timing:
        ``"wall"`` keeps the paper's measurement (wall clock + simulated
        latency); ``"sim"`` zeroes the wall component so outcomes are
        byte-identical across runs.
    chunksize:
        Tasks handed to a worker per pool submission; raise it for very
        large sweeps of very short trials.

    Every parallel run publishes the sweep's distinct generated workloads
    into one shared-memory segment that workers attach instead of
    regenerating per process (``bytes_shared`` / ``workers_attached``
    count it).  Purely a cache warm-up — outcomes are byte-identical on
    platforms without shared memory, where it degrades silently.

    One runner owns (at most) **one** process pool, created lazily on the
    first parallel :meth:`run` and reused by every later call — running all
    figures through a single runner forks the workers once instead of once
    per figure, and the workers' per-process workload caches stay warm
    across figures that share a workload.  Call :meth:`shutdown` (or use
    the runner as a context manager) to release the workers; a runner
    whose pool broke discards it and falls back to sequential execution.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        parallel: bool | None = None,
        timing: str = "wall",
        chunksize: int = 1,
    ) -> None:
        if timing not in ("wall", "sim"):
            raise ValueError("timing must be 'wall' or 'sim'")
        if chunksize < 1:
            raise ValueError("chunksize must be at least 1")
        self.max_workers = max_workers if max_workers is not None else os.cpu_count() or 1
        if self.max_workers < 1:
            raise ValueError("need at least one worker")
        self.parallel = self.max_workers > 1 if parallel is None else parallel
        self.timing = timing
        self.chunksize = chunksize
        self.trials_run = 0
        self.parallel_batches = 0
        self.sequential_fallbacks = 0
        self.pools_created = 0
        self.workers_attached = 0  # shared-segment attachments by workers
        self.bytes_shared = 0  # compressed bytes published into shared memory
        self._closed = False
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer: weakref.finalize | None = None

    # -- pool lifecycle -----------------------------------------------------
    def _shared_pool(self) -> ProcessPoolExecutor:
        """The runner's process pool, created on first use and then reused.

        A finalizer ties the pool's lifetime to the runner's: callers that
        treat runners as throwaways (``run_figure4(runner=TrialRunner())``)
        get their workers reclaimed when the runner is collected, matching
        the old pool-per-run behaviour; long-lived runners should still
        call :meth:`shutdown` (or use ``with``) for prompt release.
        """

        if self._pool is None:
            pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._pool = pool
            # run() is synchronous, so the pool is idle whenever the runner
            # becomes unreachable; shutdown(wait=True) returns immediately.
            self._pool_finalizer = weakref.finalize(self, pool.shutdown)
            self.pools_created += 1
        return self._pool

    def _detach_pool(self) -> ProcessPoolExecutor | None:
        pool = self._pool
        self._pool = None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        return pool

    def _discard_pool(self) -> None:
        pool = self._detach_pool()
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def shutdown(self) -> None:
        """Release the shared worker pool and retire the runner.

        Idempotent: repeated calls (including the context manager's exit
        after an explicit call) are no-ops.  A retired runner refuses
        further :meth:`run` calls with a clear :class:`RuntimeError` — the
        alternative is a cryptic ``BrokenProcessPool`` from a torn-down
        executor, long after the actual mistake.
        """

        self._closed = True
        pool = self._detach_pool()
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- shared inputs -------------------------------------------------------
    def _publish_shared_inputs(
        self, task_list: list[TrialTask]
    ) -> SharedWorkloadSegment | None:
        """Publish the sweep's distinct workloads into one shared segment.

        ``None`` means no sharing this run — the platform has no usable
        shared memory — and workers regenerate from seeds (same objects,
        same outcomes).
        """

        keys = sorted(
            {
                (
                    task.seed if task.workload_seed is None else task.workload_seed,
                    task.num_tasks,
                )
                for task in task_list
            }
        )
        workloads = {key: workload_for(*key) for key in keys}
        try:
            segment = publish_workloads(workloads)
        except (OSError, ValueError, pickle.PicklingError):
            return None
        self.bytes_shared += segment.wire_bytes
        return segment

    # -- execution ----------------------------------------------------------
    def run(self, tasks: Iterable[TrialTask]) -> list[TrialOutcome]:
        """Execute every task and return outcomes in task order."""

        if self._closed:
            raise RuntimeError(
                "this TrialRunner has been shut down; create a new runner "
                "to submit more trials"
            )
        task_list = list(tasks)
        if not task_list:
            return []
        worker = partial(execute_trial, timing=self.timing)
        outcomes: list[TrialOutcome] | None = None
        if self.parallel and self.max_workers > 1 and len(task_list) > 1:
            segment = self._publish_shared_inputs(task_list)
            try:
                pool = self._shared_pool()
                if segment is not None:
                    attached_worker = partial(
                        _execute_trial_attached,
                        timing=self.timing,
                        segment=segment.name,
                    )
                    pairs = list(
                        pool.map(attached_worker, task_list, chunksize=self.chunksize)
                    )
                    self.workers_attached += sum(
                        1 for _, attached in pairs if attached
                    )
                    outcomes = [outcome for outcome, _ in pairs]
                else:
                    outcomes = list(
                        pool.map(worker, task_list, chunksize=self.chunksize)
                    )
                self.parallel_batches += 1
            except (OSError, ImportError, BrokenExecutor):
                # Pool-infrastructure failure (restricted sandbox, missing
                # semaphores, killed worker): degrade gracefully.  Errors
                # raised *by a trial* propagate unchanged.
                self.sequential_fallbacks += 1
                self._discard_pool()
                outcomes = None
            finally:
                if segment is not None:
                    segment.unlink()
        if outcomes is None:
            outcomes = [worker(task) for task in task_list]
        self.trials_run += len(outcomes)
        return outcomes

    def run_figure(
        self, tasks: Iterable[TrialTask], figure: FigureResult
    ) -> FigureResult:
        """Execute the tasks and aggregate successful samples into ``figure``."""

        return aggregate_into_figure(self.run(tasks), figure)


def aggregate_into_figure(
    outcomes: Sequence[TrialOutcome], figure: FigureResult
) -> FigureResult:
    """Fold outcomes into a figure, in task order (so repeated aggregation of
    the same outcomes — sequential or parallel — builds identical figures)."""

    samples: dict[tuple[str, int], list[float]] = {}
    for outcome in outcomes:
        if outcome.succeeded:
            assert outcome.result is not None
            key = (outcome.task.series, outcome.task.x)
            samples.setdefault(key, []).append(outcome.result.allocation_seconds)
    for (series, x), values in samples.items():
        figure.add_samples(series, x, values)
    return figure


def summarise_by_point(
    outcomes: Sequence[TrialOutcome],
) -> dict[tuple[str, int], SampleSummary]:
    """Per-(series, x) summary statistics of the successful trials."""

    samples: dict[tuple[str, int], list[float]] = {}
    for outcome in outcomes:
        if outcome.succeeded:
            assert outcome.result is not None
            key = (outcome.task.series, outcome.task.x)
            samples.setdefault(key, []).append(outcome.result.allocation_seconds)
    return {key: summarise(values) for key, values in samples.items()}


def sweep_tasks(
    series: str,
    num_tasks: int,
    num_hosts: int,
    path_lengths: Sequence[int],
    runs: int,
    seed: int = DEFAULT_SEED,
    max_path_length: int | None = None,
    network: str = "simulated",
    mobility: str = "line",
    policy: str = "",
    workload_seed: int | None = None,
    x_values: Sequence[int] | None = None,
) -> list[TrialTask]:
    """Build the task list for one figure series (``runs`` trials per point).

    ``x_values`` overrides the aggregation x coordinate per path length
    (defaults to the path length itself).
    """

    tasks: list[TrialTask] = []
    for position, path_length in enumerate(path_lengths):
        if max_path_length is not None and path_length > max_path_length:
            continue
        x = path_length if x_values is None else x_values[position]
        for repetition in range(runs):
            tasks.append(
                TrialTask(
                    series=series,
                    x=x,
                    num_tasks=num_tasks,
                    num_hosts=num_hosts,
                    path_length=path_length,
                    repetition=repetition,
                    seed=seed,
                    workload_seed=workload_seed,
                    network=network,
                    mobility=mobility,
                    policy=policy,
                    initiator_index=repetition,
                )
            )
    return tasks
