"""Baseline comparators: static workflow engine and a centralized planner.

The baselines are not construction strategies of the middleware: the
workflow manager always runs Algorithm 1.
:func:`~repro.experiments.ablations.run_baseline_comparison` and the
ablation benchmarks call :class:`StaticWorkflowEngine` and
:class:`ForwardChainingPlanner` directly, next to open workflow
construction over the same knowledge.
"""

from .planner import ForwardChainingPlanner, PlannerResult
from .static_engine import StaticExecutionReport, StaticWorkflowEngine

__all__ = [
    "ForwardChainingPlanner",
    "PlannerResult",
    "StaticExecutionReport",
    "StaticWorkflowEngine",
]
