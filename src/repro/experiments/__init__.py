"""Experiment harness: trial runner, figure sweeps, and ablations.

The harness is built in three layers:

1. :mod:`~repro.experiments.trials` runs a *single* construction+allocation
   trial (the paper's Section 5 procedure) and reports a
   :class:`TrialResult`.
2. :mod:`~repro.experiments.runner` fans *many* independent trials out.
   The core API:

   * ``TrialTask(series, x, num_tasks, num_hosts, path_length, ...)`` — a
     picklable description of one trial.  All of a trial's randomness is
     derived from the task's fields, never from execution order.
   * ``TrialRunner(max_workers=None, parallel=None, timing="wall")`` — runs
     a task list; ``.run(tasks)`` returns ``TrialOutcome``\\ s in task
     order, fanned across a ``ProcessPoolExecutor`` when ``parallel`` (the
     auto-default on multi-core machines) and run in-process otherwise.
     Sequential and parallel execution agree exactly; with
     ``timing="sim"`` the outcomes are byte-identical (wall-clock noise is
     zeroed at the source).  ``.run_figure(tasks, figure)`` aggregates the
     successful samples straight into a
     :class:`~repro.analysis.reporting.FigureResult`.
   * ``sweep_tasks(...)`` builds one series' task list;
     ``aggregate_into_figure`` / ``summarise_by_point`` fold outcomes into
     figures / :class:`~repro.analysis.stats.SampleSummary` maps.

3. :mod:`~repro.experiments.figures` and
   :mod:`~repro.experiments.ablations` express the paper's figures (4-6),
   the beyond-the-paper scaling sweep (:func:`run_adhoc_scaling`), and the
   ablations as task lists over that engine.  Every driver accepts
   ``runner=TrialRunner()`` to use all cores::

       from repro.experiments import TrialRunner, run_figure4
       figure = run_figure4(runs=100, runner=TrialRunner())

"""

from .ablations import (
    BaselineComparisonPoint,
    DiscoveryAblationPoint,
    PolicyAblationPoint,
    run_baseline_comparison,
    run_discovery_ablation,
    run_policy_ablation,
)
from .figures import (
    DEFAULT_PATH_LENGTHS,
    FIGURE4_HOST_COUNTS,
    FIGURE5_TASK_COUNTS,
    FIGURE6_TASK_COUNTS,
    SCALING_HOST_COUNTS,
    default_runs,
    run_adhoc_scaling,
    run_figure4,
    run_figure5,
    run_figure6,
    run_single_point,
)
from .runner import (
    TrialOutcome,
    TrialRunner,
    TrialTask,
    aggregate_into_figure,
    execute_trial,
    summarise_by_point,
    sweep_tasks,
)
from .trials import (
    TrialResult,
    adhoc_network_factory,
    build_trial_community,
    plan_producer_crash,
    run_allocation_trial,
    simulated_network_factory,
)

__all__ = [
    "BaselineComparisonPoint",
    "DEFAULT_PATH_LENGTHS",
    "DiscoveryAblationPoint",
    "FIGURE4_HOST_COUNTS",
    "FIGURE5_TASK_COUNTS",
    "FIGURE6_TASK_COUNTS",
    "PolicyAblationPoint",
    "SCALING_HOST_COUNTS",
    "TrialOutcome",
    "TrialResult",
    "TrialRunner",
    "TrialTask",
    "adhoc_network_factory",
    "aggregate_into_figure",
    "build_trial_community",
    "default_runs",
    "execute_trial",
    "plan_producer_crash",
    "run_adhoc_scaling",
    "run_allocation_trial",
    "run_baseline_comparison",
    "run_discovery_ablation",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_policy_ablation",
    "run_single_point",
    "simulated_network_factory",
    "summarise_by_point",
    "sweep_tasks",
]
