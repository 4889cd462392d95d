"""Message types exchanged by the open workflow middleware.

The architecture (paper, Figure 3) passes every interaction between
components on different hosts through an abstract communications layer.
Four families of messages exist, mirroring the arrows in the figure:

* **fragment messages** — know-how discovery during workflow construction;
* **service feasibility messages** — capability discovery;
* **auction messages** — the call-for-bids / bid / award exchange of the
  allocation phase;
* **inter-service messages** — data produced by one service and consumed by
  another during decentralized execution.

Every message is a frozen dataclass with an envelope (sender, recipient,
unique id) and an approximate wire size used by the wireless latency model.
The payloads carry plain core-model objects (fragments, tasks, labels) so
the "serialisation" is structural; an estimate of the serialised size is
computed from the payload so the 802.11g bandwidth model has something
meaningful to work with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from ..core.fragments import WorkflowFragment
from ..core.tasks import Task

_message_counter = itertools.count(1)


def _next_message_id() -> int:
    return next(_message_counter)


# Rough per-item wire sizes (bytes) used to approximate 802.11g transfer
# times.  The absolute values matter far less than their relative order:
# fragment transfers dominate queries, and queries dominate tiny acks.
_ENVELOPE_BYTES = 64
_LABEL_BYTES = 24
_TASK_BYTES = 96
_BID_BYTES = 80


def estimate_task_bytes(task: Task) -> int:
    """Approximate serialised size of a task definition."""

    return _TASK_BYTES + _LABEL_BYTES * (len(task.inputs) + len(task.outputs))


def estimate_fragment_bytes(fragment: WorkflowFragment) -> int:
    """Approximate serialised size of a workflow fragment."""

    return _ENVELOPE_BYTES + sum(estimate_task_bytes(task) for task in fragment.tasks)


@dataclass(frozen=True)
class Message:
    """Base envelope for everything that crosses the communications layer."""

    sender: str
    recipient: str
    msg_id: int = field(default_factory=_next_message_id, compare=False)

    def size_bytes(self) -> int:
        """Approximate size on the wire, memoized on first call.

        A message's payload is immutable, but its size is consulted several
        times per transmission: once by the transport statistics and once
        per hop by the bandwidth-derived latency models.  The walk over the
        payload (every task of every fragment, for the big responses)
        therefore happens once per message instead of once per lookup.
        Subclasses contribute their payload via :meth:`_payload_bytes`.
        """

        cached = self.__dict__.get("_size_bytes")
        if cached is None:
            cached = _ENVELOPE_BYTES + self._payload_bytes()
            object.__setattr__(self, "_size_bytes", cached)
        return cached

    def _payload_bytes(self) -> int:
        """Payload size beyond the envelope; overridden by subclasses."""

        return 0

    @property
    def kind(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.kind}(#{self.msg_id} {self.sender}->{self.recipient})"


# ---------------------------------------------------------------------------
# Fragment (know-how) discovery messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class FragmentQuery(Message):
    """Ask a host for fragments relevant to a set of labels.

    ``consuming`` and ``producing`` list labels the initiator wants
    fragments for; ``exclude_fragment_ids`` lists fragments it already
    holds.  ``want_all`` models the batch algorithm's "send me everything
    you know" query.  ``since_version`` is the delta floor of the shared
    knowledge plane: a querier that previously completed a full sync with
    the recipient at fragment-set version ``v`` passes ``since_version=v``
    and receives only fragments the recipient ingested after ``v``.
    ``since_epoch`` names the responder database *instance* the floor was
    recorded against (see
    :attr:`~repro.discovery.knowhow.FragmentManager.epoch`); a responder
    whose epoch differs ignores the floor, so a version recorded against a
    departed host cannot hide the knowledge of a new host reusing its id.
    ``since_epoch=-1`` skips the check (a trusted floor).
    """

    consuming: frozenset[str] = frozenset()
    producing: frozenset[str] = frozenset()
    exclude_fragment_ids: frozenset[str] = frozenset()
    want_all: bool = False
    workflow_id: str = ""
    since_version: int = 0
    since_epoch: int = -1

    def _payload_bytes(self) -> int:
        return (
            _LABEL_BYTES * (len(self.consuming) + len(self.producing))
            + 8 * len(self.exclude_fragment_ids)
            + (8 if self.since_version else 0)
        )


@dataclass(frozen=True, repr=False)
class FragmentResponse(Message):
    """A host's answer to a :class:`FragmentQuery`: the matching fragments.

    ``knowledge_version`` is the responder's fragment-set version at answer
    time (see :class:`~repro.discovery.fragment_index.FragmentIndex`) and
    ``knowledge_epoch`` its database-instance epoch; a querier that asked
    for everything records the pair as the high-water mark for future delta
    queries.  ``-1`` means the responder did not report them.
    """

    fragments: tuple[WorkflowFragment, ...] = ()
    workflow_id: str = ""
    knowledge_version: int = -1
    knowledge_epoch: int = -1

    def _payload_bytes(self) -> int:
        return 8 + sum(estimate_fragment_bytes(f) for f in self.fragments)


# ---------------------------------------------------------------------------
# Capability (service feasibility) messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class CapabilityQuery(Message):
    """Ask a host which of the listed service types it can provide."""

    service_types: frozenset[str] = frozenset()
    workflow_id: str = ""

    def _payload_bytes(self) -> int:
        return _LABEL_BYTES * len(self.service_types)


@dataclass(frozen=True, repr=False)
class CapabilityResponse(Message):
    """The subset of queried service types the responding host offers."""

    offered: frozenset[str] = frozenset()
    workflow_id: str = ""

    def _payload_bytes(self) -> int:
        return _LABEL_BYTES * len(self.offered)


# ---------------------------------------------------------------------------
# Auction (allocation) messages
# ---------------------------------------------------------------------------
#
# Everything the auction manager says to one participant travels in one
# message: one :class:`CallForBidsBatch` carrying every task of the workflow,
# and later one :class:`AwardBatch` carrying every task that participant
# won.  The participant answers the call with one :class:`BidBatch` holding
# a firm bid or an explicit decline for each task, so a workflow costs
# O(participants) messages.  The payload entries below are plain frozen
# records, not messages: only the enclosing batch crosses the
# communications layer.


@dataclass(frozen=True)
class TaskCall:
    """One task's solicitation inside a :class:`CallForBidsBatch`.

    ``task`` carries the full task definition so the participant can check
    its own capabilities; ``earliest_start`` and ``deadline`` describe the
    window within which the task must run.
    """

    task: Task
    earliest_start: float = 0.0
    deadline: float = float("inf")


@dataclass(frozen=True)
class TaskBidOffer:
    """One task's firm bid inside a :class:`BidBatch`.

    ``specialization`` counts how many services the bidder offers overall —
    the auction manager prefers participants with *fewer* services (paper,
    Section 3.2).  ``proposed_start`` is when the bidder would run the task,
    ``response_deadline`` is the latest time by which the bidder needs the
    auction manager's decision.
    """

    task_name: str
    specialization: int = 0
    proposed_start: float = 0.0
    travel_time: float = 0.0
    response_deadline: float = float("inf")


@dataclass(frozen=True)
class TaskDecline:
    """One task's explicit "I cannot do this task" inside a :class:`BidBatch`."""

    task_name: str
    reason: str = ""


@dataclass(frozen=True)
class TaskAward:
    """One task's final allocation inside an :class:`AwardBatch`.

    Besides the task itself, the award tells the winner where to pull each
    input from and where to push each output to, which is all the
    information needed for fully decentralized execution.
    """

    task: Task
    scheduled_start: float = 0.0
    input_sources: Mapping[str, str] = field(default_factory=dict)
    output_destinations: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    trigger_labels: frozenset[str] = frozenset()

    def payload_bytes(self) -> int:
        return estimate_task_bytes(self.task) + _LABEL_BYTES * (
            len(self.input_sources) + len(self.output_destinations)
        )


@dataclass(frozen=True, repr=False)
class CallForBidsBatch(Message):
    """The auction manager solicits bids for every task in ``calls``.

    The recipient answers with a single :class:`BidBatch`.
    """

    workflow_id: str = ""
    calls: tuple[TaskCall, ...] = ()

    def _payload_bytes(self) -> int:
        return sum(estimate_task_bytes(call.task) + 16 for call in self.calls)


@dataclass(frozen=True, repr=False)
class BidBatch(Message):
    """A participant's answer to a :class:`CallForBidsBatch`.

    Carries one :class:`TaskBidOffer` per task the participant can do and
    one :class:`TaskDecline` per task it cannot, each in the order of the
    soliciting batch.
    """

    workflow_id: str = ""
    bids: tuple[TaskBidOffer, ...] = ()
    declines: tuple[TaskDecline, ...] = ()

    def _payload_bytes(self) -> int:
        return _BID_BYTES * len(self.bids) + 16 * len(self.declines)


@dataclass(frozen=True, repr=False)
class AwardBatch(Message):
    """Tasks one participant won, awarded (with routing) in one message.

    A completed auction sends each winner every task it won, in task order;
    a re-award or an award resend carries the one task concerned.
    """

    workflow_id: str = ""
    awards: tuple[TaskAward, ...] = ()

    def _payload_bytes(self) -> int:
        return sum(award.payload_bytes() for award in self.awards)


@dataclass(frozen=True, repr=False)
class AwardRejected(Message):
    """Sent by a participant whose situation changed before the award arrived."""

    workflow_id: str = ""
    task_name: str = ""
    reason: str = ""

    def _payload_bytes(self) -> int:
        return 16


@dataclass(frozen=True, repr=False)
class AwardAck(Message):
    """Positive acknowledgement of accepted awards (robust protocol only).

    On a hostile network an award can be lost in flight, or its winner can
    crash before converting it into a commitment; either way the auction
    manager would wait forever.  When fault hardening is enabled
    (``fault_injection=True``) a participant answers every award it
    *accepts* with one ack listing the committed task names (rejections
    still travel as :class:`AwardRejected`), and the manager re-sends — and
    ultimately re-auctions — awards that stay unacknowledged.  The clean
    protocol sends no acks, keeping the default byte-identical to the
    pre-fault-plane exchange.
    """

    workflow_id: str = ""
    task_names: tuple[str, ...] = ()

    def _payload_bytes(self) -> int:
        return 8 * len(self.task_names)


# ---------------------------------------------------------------------------
# Inter-service (execution phase) messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class LabelDataMessage(Message):
    """An output produced by one service, delivered to a dependent participant."""

    workflow_id: str = ""
    label: str = ""
    value: object = None
    produced_by: str = ""
    produced_at: float = 0.0

    def _payload_bytes(self) -> int:
        return _LABEL_BYTES + 64


@dataclass(frozen=True, repr=False)
class LabelReplayRequest(Message):
    """A restarted participant asks a producer to re-send lost inputs.

    Labels delivered while a host was down die with the crashed process;
    with the durable state plane on, the restarted incarnation knows from
    its journal *which* inputs its resumed invocations still miss and who
    was committed to deliver them (``Commitment.input_sources``).  The
    producer answers from its publication cache with ordinary label
    deliveries; a producer that crashed itself (cache lost) or never
    executed simply stays silent and the requester falls back to the
    input-timeout → repair ladder as before.
    """

    workflow_id: str = ""
    labels: tuple[str, ...] = ()

    def _payload_bytes(self) -> int:
        return _LABEL_BYTES * len(self.labels)


@dataclass(frozen=True, repr=False)
class ProgressQuery(Message):
    """An initiator asks an executor which of its outstanding tasks finished.

    Sent only by the robust liveness watchdog (``fault_injection``) when an
    executing workflow made no progress for ``LIVENESS_TIMEOUT``: the
    progress report that would have said so may simply have been lost.
    The executor answers with an ordinary :class:`WorkflowProgressReport`
    for the tasks it completed and stays silent about the rest, so only an
    executor that never answers is presumed dead.
    """

    workflow_id: str = ""
    task_names: tuple[str, ...] = ()

    def _payload_bytes(self) -> int:
        return 8 * len(self.task_names)


@dataclass(frozen=True, repr=False)
class TaskCompleted(Message):
    """Notification (to the initiator) that a committed task finished."""

    workflow_id: str = ""
    task_name: str = ""
    completed_at: float = 0.0
    outputs: frozenset[str] = frozenset()

    def _payload_bytes(self) -> int:
        return _LABEL_BYTES * len(self.outputs)


@dataclass(frozen=True, repr=False)
class TaskFailed(Message):
    """Notification (to the initiator) that a committed task could not be executed.

    The initiator's workflow manager uses this to trigger workflow repair:
    reconstruction of a revised workflow that avoids the failed task,
    followed by re-allocation (the feedback loop sketched in the paper's
    future-work discussion).
    """

    workflow_id: str = ""
    task_name: str = ""
    failed_at: float = 0.0
    reason: str = ""
    #: A transient failure blames the *situation* (executor crashed, inputs
    #: never arrived), not the task: repair re-auctions the task instead of
    #: excluding it from the reconstructed workflow.
    transient: bool = False

    def _payload_bytes(self) -> int:
        return 32


# ---------------------------------------------------------------------------
# Batched execution messages (one combined message per firing and receiver)
# ---------------------------------------------------------------------------
#
# The per-label protocol above costs one message per output label per
# destination, plus one completion/failure notification per task; like the
# auction control traffic, the per-message envelope and MAC overhead dominate
# these small payloads on a wireless medium.  The batched execution protocol
# combines everything one firing says to one host — every output label bound
# for that destination — into a single :class:`LabelBatch`, and everything a
# host has to tell the initiator about a workflow's progress — completions
# accumulated while its own invocations were still running, plus any failure
# — into a single :class:`WorkflowProgressReport`.  The payload entries are
# plain frozen records, not messages: only the enclosing batch crosses the
# communications layer, and every entry is recorded through the exact same
# execution-manager internals as its per-label counterpart.


@dataclass(frozen=True)
class LabelEntry:
    """One output label (with its value) inside a :class:`LabelBatch`."""

    label: str
    value: object = None


@dataclass(frozen=True)
class TaskCompletionRecord:
    """One task's completion inside a :class:`WorkflowProgressReport`."""

    task_name: str
    completed_at: float = 0.0
    outputs: frozenset[str] = frozenset()


@dataclass(frozen=True)
class TaskFailureRecord:
    """One task's execution failure inside a :class:`WorkflowProgressReport`."""

    task_name: str
    failed_at: float = 0.0
    reason: str = ""
    #: See :attr:`TaskFailed.transient`: a transient failure is repaired by
    #: re-auctioning the task, not by excluding it.
    transient: bool = False


@dataclass(frozen=True, repr=False)
class LabelBatch(Message):
    """Every output label one firing produced for one destination host.

    Semantically equivalent to one :class:`LabelDataMessage` per entry; the
    recipient's execution manager records each entry through the same
    delivery internals, in entry order.
    """

    workflow_id: str = ""
    produced_by: str = ""
    produced_at: float = 0.0
    entries: tuple[LabelEntry, ...] = ()

    def _payload_bytes(self) -> int:
        return (_LABEL_BYTES + 64) * len(self.entries)


@dataclass(frozen=True, repr=False)
class WorkflowProgressReport(Message):
    """A participant's combined execution-progress report to the initiator.

    Carries one :class:`TaskCompletionRecord` per completed commitment the
    sender had not yet reported and at most one :class:`TaskFailureRecord`
    (failures flush the report immediately so workflow repair is not
    delayed).  ``unexpected_labels`` counts label deliveries for this
    workflow that matched no pending invocation on the sender since its
    previous report — surfaced initiator-side for diagnostics.
    """

    workflow_id: str = ""
    completions: tuple[TaskCompletionRecord, ...] = ()
    failures: tuple[TaskFailureRecord, ...] = ()
    unexpected_labels: int = 0

    def _payload_bytes(self) -> int:
        payload = sum(
            16 + _LABEL_BYTES * len(record.outputs) for record in self.completions
        )
        payload += 32 * len(self.failures)
        return payload + (8 if self.unexpected_labels else 0)
