"""The construction entry point: Algorithm 1, run from scratch.

:class:`Solver` turns (supergraph, specification) into a
:class:`~repro.core.construction.ConstructionResult` by colouring the whole
supergraph with :class:`~repro.core.construction.WorkflowConstructor`, the
paper's Algorithm 1, once per problem.  The workflow manager calls it for
every revision, first solve and repair alike, and
:class:`~repro.core.incremental.IncrementalConstructor` calls it for every
round of Section 3.1's incremental variant.  Nothing is cached between
solves: a re-solve over a grown knowledge plane colours the whole plane
again.

:func:`results_equivalent` is the equivalence the property suites compare
two constructions by, such as a host's shared knowledge plane against a
fresh supergraph of the same fragments.
"""

from __future__ import annotations

from typing import Callable

from .construction import ConstructionResult, WorkflowConstructor
from .specification import Specification
from .supergraph import Supergraph
from .tasks import Task


class Solver:
    """Algorithm 1 over a supergraph, from scratch on every solve."""

    def __init__(self) -> None:
        self._constructor = WorkflowConstructor()

    def solve(
        self,
        supergraph: Supergraph,
        specification: Specification,
        task_filter: Callable[[Task], bool] | None = None,
    ) -> ConstructionResult:
        """Find one feasible workflow (or explain why none exists).

        ``task_filter`` restricts construction to the tasks it accepts
        (capability-aware construction, repair exclusions).
        """

        return self._constructor.construct(
            supergraph, specification, task_filter=task_filter
        )


def results_equivalent(
    a: ConstructionResult, b: ConstructionResult
) -> bool:
    """Solver-level equivalence of two construction results.

    Two constructions are equivalent on a problem when they agree on
    feasibility and, on success, both produce a *valid* workflow achieving
    the specification: its inset draws only on the triggering conditions
    and every goal label is either produced by the workflow or a trigger
    carried through as a free label (the same acceptance the construction
    property tests use — strict ``W.out = ω`` is unattainable when a goal
    label is also a trigger the workflow consumes).  The workflows need not
    be identical: redundant producers leave the pruning phase legitimate
    tie-break freedom.
    """

    if a.succeeded != b.succeeded:
        return False
    if not a.succeeded:
        return True

    def achieves(result: ConstructionResult) -> bool:
        workflow = result.workflow
        assert workflow is not None
        spec = result.specification
        return (
            workflow.is_valid()
            and workflow.inset <= spec.triggers
            and spec.goals <= set(workflow.labels) | spec.triggers
        )

    return achieves(a) and achieves(b)
