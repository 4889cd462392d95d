"""Per-workflow workspaces maintained by the Workflow Manager.

"The Workflow Manager creates and maintains a separate workspace for each
open workflow, allowing it to simultaneously work on multiple isolated and
independent problems" (paper, Section 4.2).  A workspace owns everything the
initiator needs for one problem: the specification, the supergraph being
accumulated from discovery responses, the construction result, the
allocation outcome, the execution progress, and — because the evaluation of
Section 5 measures the latency from specification to full allocation — the
timing marks of every phase in both simulated and wall-clock time.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass, field

from ..allocation.auction import AllocationOutcome
from ..core.construction import ConstructionResult
from ..core.specification import Specification
from ..core.supergraph import Supergraph
from ..core.workflow import Workflow

_workflow_counter = itertools.count(1)


def next_workflow_id(host_id: str) -> str:
    """Generate a community-unique workflow identifier."""

    return f"{host_id}/workflow-{next(_workflow_counter)}"


class WorkflowPhase(enum.Enum):
    """Lifecycle of one open workflow on its initiating host."""

    CREATED = "created"
    DISCOVERY = "discovery"
    CONSTRUCTION = "construction"
    ALLOCATION = "allocation"
    EXECUTING = "executing"
    COMPLETED = "completed"
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class PhaseTimestamps:
    """Simulated and wall-clock timestamps for one phase transition."""

    sim_time: float
    wall_time: float

    @staticmethod
    def capture(sim_time: float) -> "PhaseTimestamps":
        return PhaseTimestamps(sim_time=sim_time, wall_time=time.perf_counter())


@dataclass
class Workspace:
    """All initiator-side state for one open workflow."""

    workflow_id: str
    specification: Specification
    participants: frozenset[str]
    phase: WorkflowPhase = WorkflowPhase.CREATED
    supergraph: Supergraph = field(default_factory=Supergraph)
    construction_result: ConstructionResult | None = None
    allocation_outcome: AllocationOutcome | None = None
    failure_reason: str = ""

    # Discovery bookkeeping.  ``fragments_reused`` counts the fragments the
    # shared knowledge plane already held at submission; ``remotes_skipped``
    # counts remote queries avoided because the remote had already answered.
    awaiting_fragment_responses: set[str] = field(default_factory=set)
    fragment_responses_received: int = 0
    fragments_collected: int = 0
    fragments_reused: int = 0
    remotes_skipped: int = 0
    discovery_rounds: int = 0
    awaiting_capability_responses: set[str] = field(default_factory=set)
    capability_responses_received: int = 0

    # Execution bookkeeping.  ``unexpected_labels`` accumulates the
    # unexpected-delivery counts executors piggyback on their progress
    # reports.
    expected_tasks: set[str] = field(default_factory=set)
    completed_tasks: set[str] = field(default_factory=set)
    failed_tasks: set[str] = field(default_factory=set)
    unexpected_labels: int = 0

    # Repair bookkeeping (workflow revision after an execution failure).
    # ``transient_failures`` names failed tasks whose failure blamed the
    # situation (executor crash, starved inputs) rather than the task: a
    # repair re-auctions them instead of excluding them.
    excluded_tasks: set[str] = field(default_factory=set)
    transient_failures: set[str] = field(default_factory=set)
    repair_of: str | None = None
    repaired_by: str | None = None
    repair_attempt: int = 0

    # Phase timing marks.
    timestamps: dict[str, PhaseTimestamps] = field(default_factory=dict)

    #: The initiator's durable state plane (a
    #: :class:`~repro.durability.plane.HostDurability`), set by the Workflow
    #: Manager when durability is on; phase transitions journal through it.
    durability: object | None = field(default=None, compare=False, repr=False)

    # -- phase helpers -----------------------------------------------------
    def mark(self, name: str, sim_time: float) -> None:
        """Record a named timing mark (first write wins)."""

        self.timestamps.setdefault(name, PhaseTimestamps.capture(sim_time))

    def enter_phase(self, phase: WorkflowPhase, sim_time: float) -> None:
        self.phase = phase
        self.mark(phase.value, sim_time)
        if self.durability is not None:
            # fail() sets failure_reason before entering FAILED, so this one
            # hook journals both clean and failing transitions.
            self.durability.workspace_phase(
                self.workflow_id, phase.value, self.failure_reason
            )

    def fail(self, reason: str, sim_time: float) -> None:
        self.failure_reason = reason
        self.enter_phase(WorkflowPhase.FAILED, sim_time)

    # -- derived results -------------------------------------------------------
    @property
    def workflow(self) -> Workflow | None:
        if self.construction_result is None:
            return None
        return self.construction_result.workflow

    @property
    def succeeded(self) -> bool:
        return self.phase is WorkflowPhase.COMPLETED

    @property
    def is_allocated(self) -> bool:
        return (
            self.allocation_outcome is not None and self.allocation_outcome.succeeded
        )

    @property
    def all_tasks_completed(self) -> bool:
        return bool(self.expected_tasks) and self.expected_tasks <= self.completed_tasks

    # -- timing queries (what the paper's Figures 4-6 measure) --------------------
    def elapsed(self, start_mark: str, end_mark: str) -> tuple[float, float] | None:
        """(simulated, wall) seconds between two marks, or ``None`` if missing."""

        start = self.timestamps.get(start_mark)
        end = self.timestamps.get(end_mark)
        if start is None or end is None:
            return None
        return end.sim_time - start.sim_time, end.wall_time - start.wall_time

    def time_to_allocation(self) -> tuple[float, float] | None:
        """Time from specification submission until every task was allocated."""

        return self.elapsed("submitted", "allocated")

    def time_to_construction(self) -> tuple[float, float] | None:
        """Time from submission until the workflow graph was constructed."""

        return self.elapsed("submitted", "constructed")

    def time_to_completion(self) -> tuple[float, float] | None:
        """Time from submission until every task reported completion."""

        return self.elapsed("submitted", "completed")

    # -- construction effort ---------------------------------------------------------
    @property
    def construction_statistics(self):
        """The :class:`ConstructionStatistics` of the last solve, if any."""

        if self.construction_result is None:
            return None
        return self.construction_result.statistics

    def summary(self) -> dict[str, object]:
        """A flat summary used by reports and tests."""

        allocation = self.time_to_allocation()
        completion = self.time_to_completion()
        stats = self.construction_statistics
        return {
            "workflow_id": self.workflow_id,
            "phase": self.phase.value,
            "participants": len(self.participants),
            "fragments_collected": self.fragments_collected,
            "fragments_reused": self.fragments_reused,
            "remotes_skipped": self.remotes_skipped,
            "discovery_rounds": self.discovery_rounds,
            "tasks": len(self.expected_tasks),
            "completed_tasks": len(self.completed_tasks),
            "unexpected_labels": self.unexpected_labels,
            "allocation_sim_seconds": allocation[0] if allocation else None,
            "allocation_wall_seconds": allocation[1] if allocation else None,
            "completion_sim_seconds": completion[0] if completion else None,
            "completion_wall_seconds": completion[1] if completion else None,
            "nodes_recolored": stats.nodes_recolored if stats else 0,
            "failure_reason": self.failure_reason,
        }

    def __repr__(self) -> str:
        return (
            f"Workspace({self.workflow_id!r}, phase={self.phase.value}, "
            f"tasks={len(self.expected_tasks)})"
        )
