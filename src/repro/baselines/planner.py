"""A centralized forward-chaining planner (baseline comparator).

The related work on automatic service composition (SWORD's rule-based
chaining, Golog / PDDL planners) assumes a centralized knowledge base and
synthesises a plan by state-space search.  This module provides such a
baseline: a forward-chaining planner over the same task model used by the
open workflow constructor.  It serves two purposes:

* as an *oracle* in the property-based tests — whenever the planner finds a
  plan, the colouring construction algorithm must also report the
  specification as feasible, and vice versa;
* as a *performance comparator* in the ablation benchmarks — forward
  chaining enumerates applicable tasks breadth-first and typically touches
  far more of the supergraph than the goal-directed pruning phase keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.fragments import KnowledgeSet
from ..core.specification import Specification
from ..core.tasks import Task


@dataclass
class PlannerResult:
    """Outcome of a forward-chaining planning run."""

    succeeded: bool
    plan: list[str] = field(default_factory=list)
    """Task names in the order they were applied."""

    reachable_labels: set[str] = field(default_factory=set)
    expansions: int = 0
    reason: str = ""

    def __repr__(self) -> str:
        status = "ok" if self.succeeded else f"failed ({self.reason})"
        return f"PlannerResult({status}, plan_length={len(self.plan)})"


class ForwardChainingPlanner:
    """Breadth-first forward chaining from the triggers towards the goals.

    The planner maintains the set of labels known to be achievable, starting
    from the triggering conditions, and repeatedly applies any task whose
    precondition is satisfied (all inputs for conjunctive tasks, any one
    input for disjunctive tasks) until every goal label is achievable or no
    new task applies.  The applied-task sequence is then trimmed to the
    tasks actually needed for the goals by a backwards pass.
    """

    def __init__(self, knowledge: KnowledgeSet | Iterable) -> None:
        if not isinstance(knowledge, KnowledgeSet):
            knowledge = KnowledgeSet(knowledge)
        self._tasks: dict[str, Task] = {t.name: t for t in knowledge.all_tasks()}

    def plan(self, specification: Specification) -> PlannerResult:
        """Search for a plan satisfying ``specification``."""

        achieved: set[str] = set(specification.triggers)
        applied: list[str] = []
        applied_set: set[str] = set()
        result = PlannerResult(succeeded=False)

        progress = True
        while progress and not specification.goals <= achieved:
            progress = False
            for name in sorted(self._tasks):
                if name in applied_set:
                    continue
                task = self._tasks[name]
                result.expansions += 1
                if self._applicable(task, achieved):
                    applied.append(name)
                    applied_set.add(name)
                    achieved |= task.outputs
                    progress = True

        result.reachable_labels = achieved
        if not specification.goals <= achieved:
            missing = sorted(specification.goals - achieved)
            result.reason = f"goals not reachable: {missing}"
            return result

        result.succeeded = True
        result.plan = self._trim(applied, specification)
        return result

    # -- internals ------------------------------------------------------------
    @staticmethod
    def _applicable(task: Task, achieved: set[str]) -> bool:
        if not task.inputs:
            return True
        if task.is_conjunctive:
            return task.inputs <= achieved
        return bool(task.inputs & achieved)

    def _trim(self, applied: list[str], specification: Specification) -> list[str]:
        """Drop applied tasks that do not contribute to any goal label."""

        needed_labels = set(specification.goals)
        needed_tasks: list[str] = []
        for name in reversed(applied):
            task = self._tasks[name]
            if task.outputs & needed_labels:
                needed_tasks.append(name)
                needed_labels -= task.outputs
                needed_labels |= {
                    label
                    for label in task.inputs
                    if label not in specification.triggers
                }
        needed_tasks.reverse()
        return needed_tasks

    def is_feasible(self, specification: Specification) -> bool:
        """True when forward chaining can reach every goal label."""

        return self.plan(specification).succeeded

    def __repr__(self) -> str:
        return f"ForwardChainingPlanner(tasks={len(self._tasks)})"
