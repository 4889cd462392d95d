"""A conventional, statically specified workflow engine (baseline).

The related-work systems the paper contrasts itself with (ActiveBPEL,
Oracle Workflow, CiAN, ...) all "assume that a thoughtfully designed and
fully specified workflow already exists".  :class:`StaticWorkflowEngine`
models that assumption in its simplest useful form: the workflow graph is
fixed at deployment time, and at run time the engine can only check whether
the currently available capabilities suffice to execute it and, if so,
simulate its execution order.  It cannot adapt the graph to the community,
which is exactly the gap the open workflow paradigm fills; the baseline
benchmarks quantify that gap on the catering scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..core.errors import ExecutionError
from ..core.tasks import Task
from ..core.workflow import Workflow


@dataclass
class StaticExecutionReport:
    """What happened when the static workflow was (attempted to be) executed."""

    executed_tasks: list[str] = field(default_factory=list)
    blocked_tasks: dict[str, str] = field(default_factory=dict)
    produced_labels: set[str] = field(default_factory=set)

    @property
    def succeeded(self) -> bool:
        return not self.blocked_tasks

    def as_dict(self) -> dict[str, object]:
        return {
            "executed_tasks": list(self.executed_tasks),
            "blocked_tasks": dict(self.blocked_tasks),
            "produced_labels": sorted(self.produced_labels),
            "succeeded": self.succeeded,
        }


class StaticWorkflowEngine:
    """Executes a workflow whose graph was handcrafted ahead of time.

    Parameters
    ----------
    tasks:
        The fixed workflow definition.  It must form a valid workflow; the
        engine validates it once at construction, mirroring the offline
        design step of conventional workflow management systems.
    """

    def __init__(self, tasks: Iterable[Task]) -> None:
        self.workflow = Workflow(list(tasks))

    # -- static analysis -----------------------------------------------------
    def required_service_types(self) -> frozenset[str]:
        """Every service type the fixed workflow depends on."""

        return frozenset(
            task.service_type
            for task in self.workflow.tasks.values()
            if task.service_type is not None
        )

    def can_execute(self, available_service_types: Iterable[str]) -> bool:
        """True when the available capabilities cover every task of the graph.

        This is the static engine's whole notion of adaptation: a yes/no
        feasibility check.  There is no way to substitute an alternative
        task when a capability is missing.
        """

        available = frozenset(available_service_types)
        return self.required_service_types() <= available

    def missing_capabilities(
        self, available_service_types: Iterable[str]
    ) -> frozenset[str]:
        """The capabilities whose absence blocks the fixed workflow."""

        return self.required_service_types() - frozenset(available_service_types)

    # -- execution ----------------------------------------------------------------
    def execute(
        self,
        available_service_types: Iterable[str],
        initial_labels: Iterable[str],
        providers: Mapping[str, Sequence[str]] | None = None,
    ) -> StaticExecutionReport:
        """Simulate executing the fixed workflow.

        Tasks run in topological order; a task runs only when its input
        labels have been produced (or were initially available) and a
        capable provider exists.  ``providers`` optionally maps service
        types to host names purely for reporting purposes.
        """

        available = frozenset(available_service_types)
        report = StaticExecutionReport()
        report.produced_labels = set(initial_labels)
        for task_name in self.workflow.task_order():
            task = self.workflow.task(task_name)
            if task.service_type not in available:
                report.blocked_tasks[task_name] = (
                    f"no available provider for service {task.service_type!r}"
                )
                continue
            if task.is_conjunctive:
                ready = task.inputs <= report.produced_labels
            else:
                ready = bool(task.inputs & report.produced_labels)
            if not ready:
                report.blocked_tasks[task_name] = "inputs never became available"
                continue
            report.executed_tasks.append(task_name)
            report.produced_labels |= task.outputs
        return report

    def execute_or_raise(
        self, available_service_types: Iterable[str], initial_labels: Iterable[str]
    ) -> StaticExecutionReport:
        """Like :meth:`execute` but raises when any task was blocked."""

        report = self.execute(available_service_types, initial_labels)
        if not report.succeeded:
            blocked = ", ".join(sorted(report.blocked_tasks))
            raise ExecutionError(f"static workflow blocked at: {blocked}")
        return report

    def __repr__(self) -> str:
        return f"StaticWorkflowEngine(tasks={sorted(self.workflow.task_names)})"
