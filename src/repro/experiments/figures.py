"""Experiment runners that regenerate the paper's Figures 4, 5, and 6.

Every function returns a :class:`~repro.analysis.reporting.FigureResult`
with the same axes and series as the corresponding figure in the paper:

* :func:`run_figure4` — 100 task nodes partitioned across 2-15 hosts over
  the simulated network; average time to allocation vs. path length, one
  series per host count.
* :func:`run_figure5` — 2 hosts, supergraphs of 25-500 task nodes; one
  series per supergraph size.
* :func:`run_figure6` — 4 hosts over the 802.11g-like ad hoc wireless
  model, supergraphs of 25/50/100 task nodes; the maximum achievable path
  length shrinks with the graph size, reproducing the cut-offs annotated in
  the paper's figure.
* :func:`run_adhoc_scaling` — beyond the paper: fig6-style workloads over a
  *multi-hop* ad hoc network with hundreds of mobile hosts scattered over a
  site, the scenario class the spatial-indexed network substrate unlocks.

Each figure expresses its sweep as a flat list of
:class:`~repro.experiments.runner.TrialTask` descriptions and hands them to
a :class:`~repro.experiments.runner.TrialRunner`; pass
``runner=TrialRunner()`` to fan the trials across every core (results are
identical to the default sequential execution — per-trial seeding is
order-independent).

The paper averages one thousand runs per point.  That is supported (pass
``runs=1000``) but the default is intentionally small so the whole suite can
run in seconds; set the ``REPRO_RUNS`` environment variable or the ``runs``
argument for higher fidelity.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from ..analysis.reporting import FigureResult
from ..sim.randomness import DEFAULT_SEED, derive_rng
from ..workloads.supergraph_gen import GeneratedWorkload, RandomSupergraphWorkload
from .runner import TrialRunner, TrialTask, sweep_tasks
from .trials import (
    TrialResult,
    adhoc_network_factory,
    run_allocation_trial,
    simulated_network_factory,
)

DEFAULT_PATH_LENGTHS: tuple[int, ...] = tuple(range(2, 23, 2))
FIGURE4_HOST_COUNTS: tuple[int, ...] = (2, 3, 4, 5, 10, 15)
FIGURE5_TASK_COUNTS: tuple[int, ...] = (25, 50, 100, 250, 500)
FIGURE6_TASK_COUNTS: tuple[int, ...] = (25, 50, 100)
SCALING_HOST_COUNTS: tuple[int, ...] = (20, 50, 100, 200)


def default_runs(fallback: int = 3) -> int:
    """Number of repetitions per data point (override with ``REPRO_RUNS``)."""

    value = os.environ.get("REPRO_RUNS", "")
    try:
        parsed = int(value)
    except ValueError:
        return fallback
    return max(1, parsed) if value else fallback


def _generate_workloads(
    task_counts: Iterable[int], seed: int
) -> dict[int, GeneratedWorkload]:
    generator = RandomSupergraphWorkload(seed=seed)
    return {count: generator.generate(count) for count in task_counts}


def _run_tasks(
    figure: FigureResult, tasks: Sequence[TrialTask], runner: TrialRunner | None
) -> FigureResult:
    runner = runner if runner is not None else TrialRunner(parallel=False)
    return runner.run_figure(tasks, figure)


def run_figure4(
    num_tasks: int = 100,
    host_counts: Sequence[int] = FIGURE4_HOST_COUNTS,
    path_lengths: Sequence[int] = DEFAULT_PATH_LENGTHS,
    runs: int | None = None,
    seed: int = DEFAULT_SEED,
    runner: TrialRunner | None = None,
) -> FigureResult:
    """Figure 4: 100 task nodes partitioned across different numbers of hosts."""

    runs = default_runs() if runs is None else runs
    figure = FigureResult(
        title="Figure 4 — simulation of 100 task nodes across varying host counts",
        metadata={"task_nodes": num_tasks, "runs_per_point": runs, "network": "simulated"},
    )
    workload = RandomSupergraphWorkload(seed=seed).generate(num_tasks)
    tasks: list[TrialTask] = []
    for num_hosts in host_counts:
        tasks.extend(
            sweep_tasks(
                series=f"{num_hosts} host",
                num_tasks=num_tasks,
                num_hosts=num_hosts,
                path_lengths=path_lengths,
                runs=runs,
                seed=seed,
                max_path_length=workload.max_path_length(),
                network="simulated",
            )
        )
    return _run_tasks(figure, tasks, runner)


def run_figure5(
    num_hosts: int = 2,
    task_counts: Sequence[int] = FIGURE5_TASK_COUNTS,
    path_lengths: Sequence[int] = tuple(range(2, 15, 2)),
    runs: int | None = None,
    seed: int = DEFAULT_SEED,
    runner: TrialRunner | None = None,
) -> FigureResult:
    """Figure 5: different numbers of task nodes partitioned across 2 hosts."""

    runs = default_runs() if runs is None else runs
    figure = FigureResult(
        title="Figure 5 — simulation of varying supergraph sizes across 2 hosts",
        metadata={"hosts": num_hosts, "runs_per_point": runs, "network": "simulated"},
    )
    workloads = _generate_workloads(task_counts, seed)
    tasks: list[TrialTask] = []
    for task_count in task_counts:
        tasks.extend(
            sweep_tasks(
                series=f"{task_count} task",
                num_tasks=task_count,
                num_hosts=num_hosts,
                path_lengths=path_lengths,
                runs=runs,
                seed=seed,
                max_path_length=workloads[task_count].max_path_length(),
                network="simulated",
            )
        )
    return _run_tasks(figure, tasks, runner)


def run_figure6(
    num_hosts: int = 4,
    task_counts: Sequence[int] = FIGURE6_TASK_COUNTS,
    path_lengths: Sequence[int] = tuple(range(2, 21, 2)),
    runs: int | None = None,
    seed: int = DEFAULT_SEED,
    runner: TrialRunner | None = None,
) -> FigureResult:
    """Figure 6: ad hoc 802.11g wireless "empirical" runs with 4 hosts.

    The real testbed is replaced by the
    :class:`~repro.net.adhoc.AdHocWirelessNetwork` latency model; the
    reported time is wall-clock processing plus the simulated radio latency,
    so the series sit above their Figure 4/5 counterparts just as the
    paper's empirical numbers sit above the pure-simulation ones.
    """

    runs = default_runs() if runs is None else runs
    figure = FigureResult(
        title="Figure 6 — ad hoc 802.11g wireless, 4 hosts, varying supergraph sizes",
        metadata={"hosts": num_hosts, "runs_per_point": runs, "network": "802.11g model"},
    )
    workloads = _generate_workloads(task_counts, seed)
    tasks: list[TrialTask] = []
    for task_count in task_counts:
        tasks.extend(
            sweep_tasks(
                series=f"{task_count} task",
                num_tasks=task_count,
                num_hosts=num_hosts,
                path_lengths=path_lengths,
                runs=runs,
                seed=seed,
                max_path_length=workloads[task_count].max_path_length(),
                network="adhoc",
            )
        )
    figure.metadata["max_path_length"] = {
        f"{count} task": workloads[count].max_path_length() for count in task_counts
    }
    return _run_tasks(figure, tasks, runner)


def run_adhoc_scaling(
    num_tasks: int = 50,
    host_counts: Sequence[int] = SCALING_HOST_COUNTS,
    path_length: int = 4,
    runs: int | None = None,
    seed: int = DEFAULT_SEED,
    mobility: str = "waypoint",
    runner: TrialRunner | None = None,
) -> FigureResult:
    """Fig6-style workloads scaled to hundreds of mobile multi-hop hosts.

    Hosts are scattered (``mobility="scatter"``) or wander as random
    waypoints (``"waypoint"``, the default) over a site whose area grows
    with the population, so messages must be relayed over AODV routes and
    the route table churns as hosts move.  The x axis is the host count.
    """

    runs = default_runs() if runs is None else runs
    figure = FigureResult(
        title=(
            f"Ad hoc scaling — {num_tasks} task nodes, multi-hop 802.11g, "
            f"{mobility} mobility"
        ),
        x_label="Hosts",
        metadata={
            "task_nodes": num_tasks,
            "runs_per_point": runs,
            "network": "802.11g multi-hop",
            "path_length": path_length,
            "mobility": mobility,
        },
    )
    workload = RandomSupergraphWorkload(seed=seed).generate(num_tasks)
    tasks: list[TrialTask] = []
    for num_hosts in host_counts:
        tasks.extend(
            sweep_tasks(
                series=f"path {path_length}",
                num_tasks=num_tasks,
                num_hosts=num_hosts,
                path_lengths=(path_length,),
                runs=runs,
                seed=seed,
                max_path_length=workload.max_path_length(),
                network="adhoc-multihop",
                mobility=mobility,
                x_values=(num_hosts,),
            )
        )
    return _run_tasks(figure, tasks, runner)


def run_single_point(
    num_tasks: int,
    num_hosts: int,
    path_length: int,
    seed: int = DEFAULT_SEED,
    adhoc: bool = False,
) -> TrialResult | None:
    """Run one trial of one configuration (used by quick checks and tests)."""

    workload = RandomSupergraphWorkload(seed=seed).generate(num_tasks)
    rng = derive_rng(seed, "single", num_tasks, num_hosts, path_length)
    specification = workload.path_specification(path_length, rng)
    if specification is None:
        return None
    factory = adhoc_network_factory(seed) if adhoc else simulated_network_factory(seed)
    return run_allocation_trial(
        workload, num_hosts, specification, seed=seed, network_factory=factory
    )
