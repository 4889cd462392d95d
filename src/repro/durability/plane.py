"""The write-ahead plane: typed records, replayable state, compaction.

:class:`HostDurability` is the facade the state-owning managers talk to.
Each hook appends one typed record to the backend's journal; records are
pickled tuples, opaque to the backend.  The facade also drives *compaction*:
once the journal tail grows past ``snapshot_every`` records, the whole
snapshot + journal is folded into a fresh :class:`DurableHostState` snapshot
and the journal truncated — a superseded record (an input delivery for an
invocation that later completed, a commitment that was released) never
survives to the durable tail.

:func:`rebuild_state` is the read side: load the snapshot, apply the journal
tail record by record, and hand back the :class:`DurableHostState` a
restarted host resumes from.  Replay is idempotent and ignores unknown
record kinds, so journals written by a newer incarnation of the code still
restore everything an older reader understands.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from .backend import DurabilityBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.fragments import WorkflowFragment
    from ..core.specification import Specification
    from ..scheduling.commitments import Commitment


# -- replayable state ---------------------------------------------------------


@dataclass
class InvocationState:
    """Durable view of one pending service invocation on a participant."""

    commitment: "Commitment"
    inputs: dict[str, object] = field(default_factory=dict)
    fired: bool = False
    completed: bool = False
    failed: bool = False

    @property
    def finished(self) -> bool:
        return self.completed or self.failed


@dataclass
class WorkspaceState:
    """Durable view of one initiator-side workflow workspace."""

    workflow_id: str
    specification: "Specification"
    participants: frozenset[str]
    excluded_tasks: frozenset[str] = frozenset()
    repair_of: str | None = None
    repair_attempt: int = 0
    phase: str = "created"
    failure_reason: str = ""
    expected_tasks: tuple[str, ...] = ()
    completed_tasks: set[str] = field(default_factory=set)
    allocation: dict[str, str] = field(default_factory=dict)
    repaired_by: str | None = None
    #: Remotes whose discovery response arrived before the crash, and the
    #: fragments those responses carried.  Both are cleared once the
    #: workspace leaves its construction phases (executing/terminal) so
    #: snapshots stay lean — they only matter for mid-construction resume.
    responded: set[str] = field(default_factory=set)
    discovered: list = field(default_factory=list)


@dataclass
class DurableHostState:
    """Everything a restarted host rebuilds from snapshot + journal.

    ``fragments`` and ``commitments`` preserve journal (= ingestion /
    acceptance) order; ``epochs`` records every fragment-database epoch an
    incarnation of this host ever started, so tests can assert epoch
    monotonicity across crash/restart cycles straight from the journal.
    """

    fragments: dict[str, "WorkflowFragment"] = field(default_factory=dict)
    epochs: list[int] = field(default_factory=list)
    commitments: dict[str, "Commitment"] = field(default_factory=dict)
    invocations: dict[tuple[str, str], InvocationState] = field(default_factory=dict)
    workspaces: dict[str, WorkspaceState] = field(default_factory=dict)
    #: Produced output values keyed ``(workflow_id, label)`` — the durable
    #: shadow of the execution engine's publication cache, restored so a
    #: resumed producer can answer ``LabelReplayRequest``s.
    published: dict[tuple[str, str], object] = field(default_factory=dict)

    def apply(self, record: tuple) -> None:
        """Fold one journal record into the state (idempotent)."""

        kind = record[0]
        if kind == "epoch":
            self.epochs.append(record[1])
        elif kind == "frag-add":
            fragment = record[1]
            # First write wins, matching FragmentIndex.add's dedup by id.
            self.fragments.setdefault(fragment.fragment_id, fragment)
        elif kind == "frag-del":
            self.fragments.pop(record[1], None)
        elif kind == "commit-add":
            commitment = record[1]
            self.commitments.setdefault(commitment.commitment_id, commitment)
        elif kind == "commit-del":
            self.commitments.pop(record[1], None)
        elif kind == "sched-clear":
            self.commitments.clear()
        elif kind == "inv-watch":
            commitment = record[1]
            key = (commitment.workflow_id, commitment.task.name)
            self.invocations.setdefault(key, InvocationState(commitment))
        elif kind == "inv-input":
            _, workflow_id, task_name, label, value = record
            invocation = self.invocations.get((workflow_id, task_name))
            if invocation is not None:
                invocation.inputs[label] = value
        elif kind == "inv-fired":
            invocation = self.invocations.get((record[1], record[2]))
            if invocation is not None:
                invocation.fired = True
        elif kind == "inv-done":
            invocation = self.invocations.get((record[1], record[2]))
            if invocation is not None:
                invocation.completed = True
        elif kind == "inv-fail":
            invocation = self.invocations.get((record[1], record[2]))
            if invocation is not None:
                invocation.failed = True
        elif kind == "ws-open":
            _, workflow_id, specification, participants, excluded, repair_of, attempt = record
            self.workspaces.setdefault(
                workflow_id,
                WorkspaceState(
                    workflow_id=workflow_id,
                    specification=specification,
                    participants=frozenset(participants),
                    excluded_tasks=frozenset(excluded),
                    repair_of=repair_of,
                    repair_attempt=attempt,
                ),
            )
        elif kind == "ws-phase":
            workspace = self.workspaces.get(record[1])
            if workspace is not None:
                workspace.phase = record[2]
                workspace.failure_reason = record[3]
                if record[2] in ("executing", "completed", "failed"):
                    # Construction is over: discovery bookkeeping can only
                    # bloat future snapshots, never inform a resume.
                    workspace.responded.clear()
                    workspace.discovered.clear()
        elif kind == "ws-frag":
            workspace = self.workspaces.get(record[1])
            if workspace is not None and record[2] not in workspace.responded:
                workspace.responded.add(record[2])
                workspace.discovered.extend(record[3])
        elif kind == "auction-done":
            workspace = self.workspaces.get(record[1])
            if workspace is not None and not workspace.allocation:
                workspace.allocation = dict(record[2])
        elif kind == "award-update":
            workspace = self.workspaces.get(record[1])
            if workspace is not None:
                workspace.allocation = dict(record[2])
        elif kind == "ws-award":
            workspace = self.workspaces.get(record[1])
            if workspace is not None:
                workspace.allocation = dict(record[2])
                workspace.expected_tasks = tuple(record[3])
        elif kind == "ws-task":
            workspace = self.workspaces.get(record[1])
            if workspace is not None:
                workspace.completed_tasks.add(record[2])
        elif kind == "ws-repair":
            workspace = self.workspaces.get(record[1])
            if workspace is not None:
                workspace.repaired_by = record[2]
        elif kind == "pub":
            # Last write wins: a repaired re-execution may republish a
            # label, and consumers replaying later must see that value.
            self.published[(record[1], record[2])] = record[3]
        # Unknown kinds are ignored: forward compatibility with journals
        # written by newer code.


def _loads(payload: bytes) -> tuple | None:
    try:
        record = pickle.loads(payload)
    except Exception:
        return None  # unreadable record: skip, keep replaying
    return record if isinstance(record, tuple) and record else None


def rebuild_state(backend: DurabilityBackend) -> DurableHostState:
    """Replay snapshot + journal tail into a :class:`DurableHostState`."""

    state: DurableHostState | None = None
    blob = backend.load_snapshot()
    if blob is not None:
        try:
            loaded = pickle.loads(blob)
        except Exception:
            loaded = None
        if isinstance(loaded, DurableHostState):
            state = loaded
    if state is None:
        state = DurableHostState()
    for payload in backend.payloads():
        record = _loads(payload)
        if record is not None:
            state.apply(record)
    return state


# -- the write-ahead facade ---------------------------------------------------


class HostDurability:
    """Typed write-ahead hooks for one host incarnation.

    One facade is created per host *incarnation* and wraps the community-
    owned backend that survives crashes.  Appends are suspended while a
    restarted host mechanically re-applies recovered state (the journal
    already holds those records); everything the host does afterwards is
    journaled normally.

    Parameters
    ----------
    backend:
        Where the records go.
    snapshot_every:
        Journal-tail length that triggers compaction (snapshot + truncate).
    journal_outputs:
        When ``False``, :meth:`label_published` is a no-op: produced values
        never reach the journal, so a crashed producer cannot answer replay
        requests.  ``HostConfig.durable_outputs`` selects it; the
        producer-crash tests run both settings to pin what output
        journaling buys.
    """

    def __init__(
        self,
        backend: DurabilityBackend,
        snapshot_every: int = 512,
        journal_outputs: bool = True,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        self.backend = backend
        self.snapshot_every = snapshot_every
        self.journal_outputs = journal_outputs
        self._suspended = 0
        self.records_written = 0
        self.snapshots_written = 0

    # -- plumbing ---------------------------------------------------------
    @contextmanager
    def suspended(self) -> Iterator[None]:
        """No-op appends inside the block (used while replaying recovery)."""

        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def _append(self, record: tuple) -> None:
        if self._suspended:
            return
        self.backend.append(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        self.records_written += 1
        if self.backend.journal_length >= self.snapshot_every:
            self.compact()

    def compact(self) -> None:
        """Fold snapshot + journal into a fresh snapshot; truncate the tail.

        Superseded records — inputs of settled invocations, released
        commitments, phase transitions a later transition replaced — are
        dropped here and never hit the durable tail again.
        """

        state = rebuild_state(self.backend)
        self.backend.write_snapshot(
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self.snapshots_written += 1

    def records(self) -> list[tuple]:
        """The decoded journal-tail records (testing/introspection aid)."""

        decoded = []
        for payload in self.backend.payloads():
            record = _loads(payload)
            if record is not None:
                decoded.append(record)
        return decoded

    def state(self) -> DurableHostState:
        """The current replayable state (snapshot + journal tail)."""

        return rebuild_state(self.backend)

    # -- fragment database hooks ------------------------------------------
    def epoch_started(self, epoch: int) -> None:
        self._append(("epoch", epoch))

    def fragment_added(self, fragment: "WorkflowFragment") -> None:
        self._append(("frag-add", fragment))

    def fragment_discarded(self, fragment_id: str) -> None:
        self._append(("frag-del", fragment_id))

    # -- schedule hooks ----------------------------------------------------
    def commitment_added(self, commitment: "Commitment") -> None:
        self._append(("commit-add", commitment))

    def commitment_released(self, commitment_id: str) -> None:
        self._append(("commit-del", commitment_id))

    def schedule_cleared(self) -> None:
        self._append(("sched-clear",))

    # -- invocation lifecycle hooks ---------------------------------------
    def invocation_scheduled(self, commitment: "Commitment") -> None:
        self._append(("inv-watch", commitment))

    def input_received(
        self, workflow_id: str, task_name: str, label: str, value: object
    ) -> None:
        self._append(("inv-input", workflow_id, task_name, label, value))

    def invocation_fired(self, workflow_id: str, task_name: str) -> None:
        self._append(("inv-fired", workflow_id, task_name))

    def invocation_completed(self, workflow_id: str, task_name: str) -> None:
        self._append(("inv-done", workflow_id, task_name))

    def invocation_failed(
        self, workflow_id: str, task_name: str, reason: str = ""
    ) -> None:
        self._append(("inv-fail", workflow_id, task_name, reason))

    def label_published(self, workflow_id: str, label: str, value: object) -> None:
        """Write-ahead one produced output value (gated by journal_outputs)."""

        if not self.journal_outputs:
            return
        self._append(("pub", workflow_id, label, value))

    # -- workspace hooks ---------------------------------------------------
    def workspace_opened(
        self,
        workflow_id: str,
        specification: "Specification",
        participants: frozenset[str],
        excluded_tasks: frozenset[str],
        repair_of: str | None,
        repair_attempt: int,
    ) -> None:
        self._append(
            (
                "ws-open",
                workflow_id,
                specification,
                frozenset(participants),
                frozenset(excluded_tasks),
                repair_of,
                repair_attempt,
            )
        )

    def workspace_phase(
        self, workflow_id: str, phase: str, failure_reason: str = ""
    ) -> None:
        self._append(("ws-phase", workflow_id, phase, failure_reason))

    def workspace_awarded(
        self,
        workflow_id: str,
        allocation: dict[str, str],
        expected_tasks: tuple[str, ...],
    ) -> None:
        self._append(("ws-award", workflow_id, dict(allocation), tuple(expected_tasks)))

    def workspace_task_completed(self, workflow_id: str, task_name: str) -> None:
        self._append(("ws-task", workflow_id, task_name))

    def workspace_repaired(self, workflow_id: str, repaired_by: str) -> None:
        self._append(("ws-repair", workflow_id, repaired_by))

    def discovery_response(
        self, workflow_id: str, sender: str, fragments: list
    ) -> None:
        """One remote's discovery response (fragments it contributed)."""

        self._append(("ws-frag", workflow_id, sender, list(fragments)))

    def auction_completed(
        self, workflow_id: str, allocation: dict[str, str], unallocated: tuple
    ) -> None:
        """The auction's outcome, journaled before awards go on the wire."""

        self._append(("auction-done", workflow_id, dict(allocation), tuple(unallocated)))

    def allocation_updated(self, workflow_id: str, allocation: dict[str, str]) -> None:
        """A post-award reassignment changed who runs what."""

        self._append(("award-update", workflow_id, dict(allocation)))

    def __repr__(self) -> str:
        return (
            f"HostDurability(records={self.records_written}, "
            f"snapshots={self.snapshots_written}, backend={self.backend!r})"
        )
