"""The Execution Manager: decentralized, condition-driven service invocation.

After allocation, each participant is on its own: "the execution phase of an
open workflow proceeds in a fully decentralized, distributed manner" (paper,
Section 3.2).  To meet a commitment the participant must (1) acquire the
required inputs from the executors of the preceding tasks, (2) be at the
required location, and (3) execute the service at the required time; once
executed, it communicates the outputs to any participants that require them.

:class:`ExecutionManager` implements exactly that loop for one host.  It
"monitors the input message and time conditions required for each scheduled
service invocation ... once the necessary conditions are met, it triggers
service execution, and publishes any output messages" (Section 4.2).
Location condition (2) is represented by the travel time already blocked out
in the commitment: the manager will not fire before ``commitment.start``,
by which time the travel has taken place.

Scaling architecture
--------------------
Trigger dispatch is *indexed*: an inverted index keyed by
``(workflow_id, label)`` maps every awaited input label to the pending
invocations that consume it, maintained eagerly on :meth:`watch` and on
completion (a bucket whose last watcher leaves is deleted, so the index
never outgrows the pending set — the same index-key rule as
:class:`~repro.discovery.fragment_index.FragmentIndex`).  Delivering a
label is O(consumers of that label), not O(pending invocations).

Output publication and progress reporting are *batched*: one
:class:`~repro.net.messages.LabelBatch` per (firing, destination host)
carries every output label that firing owes that host, and one
:class:`~repro.net.messages.WorkflowProgressReport` to the initiator covers
a completion *burst* — a completion is buffered while another invocation of
the same workflow is still executing on this host (that invocation's own
completion is already scheduled and will flush the report), so a pipeline
of k tasks run back-to-back on one host reports once instead of k times.
Failures always flush immediately (carrying any buffered completions) so
workflow repair is never delayed.  A replayed label travels as a one-entry
batch and is recorded through the same delivery internals as a first
delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core.errors import ExecutionError
from ..net.messages import (
    LabelBatch,
    LabelEntry,
    LabelReplayRequest,
    Message,
    ProgressQuery,
    TaskCompletionRecord,
    TaskFailureRecord,
    WorkflowProgressReport,
)
from ..scheduling.commitments import Commitment, CommitmentOutcome
from ..sim.events import EventHandle, EventScheduler
from .services import ServiceManager

SendFunction = Callable[[Message], None]

#: Robust mode: simulated seconds after its scheduled start an invocation
#: still missing inputs is abandoned as a transient failure.
INPUT_TIMEOUT = 60.0
#: Robust mode: the fractions of ``INPUT_TIMEOUT`` after the scheduled start
#: at which an invocation still missing inputs pulls them from their
#: producers, before the timeout hands what is left to workflow repair.
INPUT_PULLS = (0.25, 0.5, 0.75)

_PendingKey = tuple[str, str]


@dataclass
class PendingInvocation:
    """Book-keeping for one commitment awaiting its trigger conditions."""

    commitment: Commitment
    received_inputs: dict[str, object] = field(default_factory=dict)
    started: bool = False
    completed: bool = False
    #: Robust mode only: the timer that abandons the invocation when its
    #: inputs never arrive (cancelled the moment execution starts).
    expiry_event: EventHandle | None = None
    #: Robust mode only: the ``INPUT_PULLS`` timers that ask the producers
    #: for inputs still missing (cancelled with ``expiry_event``).
    pull_events: tuple[EventHandle, ...] = ()

    @property
    def task_name(self) -> str:
        return self.commitment.task.name

    def cancel_timers(self) -> None:
        """Cancel the robust-mode expiry and pull timers, if armed."""

        for event in (self.expiry_event, *self.pull_events):
            if event is not None:
                event.cancel()
        self.expiry_event, self.pull_events = None, ()

    def inputs_satisfied(self) -> bool:
        """Are the data prerequisites met?

        Trigger labels are considered available from the outset.  A
        conjunctive task needs every remaining input; a disjunctive task
        needs at least one of its inputs (a trigger label counts).
        """

        task = self.commitment.task
        available = set(self.received_inputs) | set(self.commitment.trigger_labels)
        needed = task.inputs
        if not needed:
            return True
        if task.is_conjunctive:
            return needed <= available
        return bool(needed & available)

    def missing_inputs(self) -> frozenset[str]:
        available = set(self.received_inputs) | set(self.commitment.trigger_labels)
        return frozenset(self.commitment.task.inputs - available)


class ExecutionManager:
    """Runs the commitments of one host.

    Parameters
    ----------
    host_id:
        The owning host.
    scheduler:
        The shared event scheduler (provides time and timers).
    services:
        The host's service manager, used to actually invoke services.
    send:
        Callback used to hand outgoing messages to the communications layer.
    """

    def __init__(
        self,
        host_id: str,
        scheduler: EventScheduler,
        services: ServiceManager,
        send: SendFunction,
        robust: bool = False,
        schedule=None,
        durability=None,
    ) -> None:
        self.host_id = host_id
        self.scheduler = scheduler
        self.services = services
        self._send = send
        #: Fault hardening (``fault_injection``): an invocation still missing
        #: inputs at each of ``INPUT_PULLS`` after its scheduled start asks
        #: their producers to replay them, and one whose inputs have not all
        #: arrived ``INPUT_TIMEOUT`` seconds after its scheduled start is
        #: *abandoned* — its commitment is released from ``schedule`` (the
        #: host's :class:`~repro.scheduling.schedule.ScheduleManager`, when
        #: given) and the initiator is told via a transient failure, so a
        #: producer's death upstream turns into workflow repair instead of
        #: an invocation pending forever.  Off by default: no timer survives
        #: long enough to change a clean run.
        self.robust = robust
        self.schedule = schedule
        self.durability = durability
        self.invocations_abandoned = 0
        #: Invocations re-armed from the durable journal after a restart
        #: (instead of being lost and re-auctioned via repair).
        self.invocations_resumed = 0
        #: Published values restored into the cache from the journal.
        self.publications_restored = 0
        #: Labels this host answered replay requests for (from the cache,
        #: restored or live).
        self.labels_replayed = 0
        self._pending: dict[_PendingKey, PendingInvocation] = {}
        #: Inverted trigger index: (workflow_id, label) -> the pending
        #: invocations awaiting that label, in watch order.  Buckets are
        #: ordered dicts used as sets so delivery order matches the old
        #: linear scan exactly; an emptied bucket is deleted.
        self._watchers: dict[tuple[str, str], dict[_PendingKey, None]] = {}
        #: Per-workflow count of invocations currently executing (started,
        #: not yet completed); used to decide when a completion burst ends.
        self._running: dict[str, int] = {}
        #: Publication cache: every (workflow_id, label) this host produced,
        #: with its value.  Serves :class:`~repro.net.messages.LabelReplayRequest`
        #: from consumers whose copy was lost in flight or died with their
        #: crashed process.  With output journaling on, the cache itself is
        #: restored after this host's own crash (:meth:`restore_publications`);
        #: with it off, a crashed producer cannot replay and the requester
        #: falls back to repair.
        self._published: dict[tuple[str, str], object] = {}
        #: Completions not yet reported to the initiator, per workflow.
        self._unsent_completions: dict[str, list[TaskCompletionRecord]] = {}
        self.outcomes: list[CommitmentOutcome] = []
        #: Label deliveries that matched no pending invocation (late,
        #: duplicate, or mis-routed data); ``_unreported_unexpected`` holds
        #: the per-workflow count not yet piggybacked on a progress report
        #: (popped on flush, so it never outlives the stray traffic).
        self.unexpected_labels = 0
        self._unreported_unexpected: dict[str, int] = {}

    # -- commitment intake ---------------------------------------------------
    def watch(self, commitment: Commitment) -> PendingInvocation:
        """Start monitoring the conditions of a newly accepted commitment."""

        key = (commitment.workflow_id, commitment.task.name)
        if key in self._pending:
            return self._pending[key]
        pending = PendingInvocation(commitment)
        self._pending[key] = pending
        if self.durability is not None:
            self.durability.invocation_scheduled(commitment)
        for label in commitment.task.inputs:
            self._watchers.setdefault((commitment.workflow_id, label), {})[key] = None
        # Time condition: wake up when the scheduled start arrives.  Input
        # messages arriving earlier are recorded but do not trigger execution
        # before the committed time.
        delay = max(0.0, commitment.start - self.scheduler.clock.now())
        self.scheduler.schedule_in(
            delay,
            lambda: self._maybe_execute(key),
            description=f"start-window {commitment.task.name}",
        )
        if self.robust:
            pending.expiry_event = self.scheduler.schedule_in(
                delay + INPUT_TIMEOUT,
                lambda: self._expire(key),
                description=f"input-timeout {commitment.task.name}",
            )
            pending.pull_events = tuple(
                self.scheduler.schedule_in(
                    delay + fraction * INPUT_TIMEOUT,
                    lambda: self._request_missing_inputs(self._pending[key]),
                    description=f"input-pull {commitment.task.name}",
                )
                for fraction in INPUT_PULLS
            )
        return pending

    def _unwatch(self, key: _PendingKey, commitment: Commitment) -> None:
        """Remove a finished invocation from the trigger index."""

        for label in commitment.task.inputs:
            index_key = (commitment.workflow_id, label)
            bucket = self._watchers.get(index_key)
            if bucket is None:
                continue
            bucket.pop(key, None)
            if not bucket:
                del self._watchers[index_key]

    def restore_invocations(self, records) -> None:
        """Re-arm recovered in-flight invocations after a restart.

        ``records`` are :class:`~repro.durability.plane.InvocationState`
        values replayed from the journal.  Settled invocations are skipped
        (their completion/failure already reached the initiator or will be
        repaired there); the rest are re-watched with their already-received
        inputs restored, so only the labels lost during the outage still
        have to arrive — or time out into the repair ladder.  The journal
        already holds these records, so appends are suspended for the
        mechanical part.
        """

        resumed: list[PendingInvocation] = []
        for record in records:
            if record.finished:
                continue
            if self.durability is not None:
                with self.durability.suspended():
                    pending = self.watch(record.commitment)
                    pending.received_inputs.update(record.inputs)
            else:
                pending = self.watch(record.commitment)
                pending.received_inputs.update(record.inputs)
            self.invocations_resumed += 1
            resumed.append(pending)
            # The start window may already have passed during the outage;
            # the watch() timer fires immediately in that case and the
            # restored inputs count toward the trigger conditions.
        for pending in resumed:
            self._request_missing_inputs(pending)

    def restore_publications(self, published: Mapping[tuple[str, str], object]) -> None:
        """Refill the publication cache from the journal after a restart.

        With output journaling on, every value this host ever published is
        in the durable state; restoring it lets the resumed incarnation
        answer :class:`~repro.net.messages.LabelReplayRequest`s for labels
        produced *before* the crash — the producer-side half of input
        replay.  Without this, a consumer whose producer crashed waits out
        its input timeout and falls into the repair ladder.
        """

        for key, value in published.items():
            self._published[key] = value
            self.publications_restored += 1

    def _request_missing_inputs(self, pending: PendingInvocation) -> None:
        """Ask producers to re-send inputs that have not arrived.

        A label dropped in flight, or delivered while this host was down,
        will never arrive again on its own; the commitment records who was
        supposed to deliver it, so the invocation (resumed after a restart,
        or at each of ``INPUT_PULLS`` in robust mode) asks each producer to
        replay from its publication cache rather than sitting out the input
        window and falling into the repair ladder.
        """

        if pending.started or pending.completed or pending.inputs_satisfied():
            return
        commitment = pending.commitment
        by_source: dict[str, list[str]] = {}
        for label in sorted(pending.missing_inputs()):
            source = commitment.input_sources.get(label)
            if source and source != self.host_id:
                by_source.setdefault(source, []).append(label)
        for source, labels in by_source.items():
            self._send(
                LabelReplayRequest(
                    sender=self.host_id,
                    recipient=source,
                    workflow_id=commitment.workflow_id,
                    labels=tuple(labels),
                )
            )

    def handle_replay_request(self, message: LabelReplayRequest) -> None:
        """Re-send previously published labels to a consumer that asks.

        Answers come from the publication cache (live, or restored from the
        journal after this host's own restart) as one one-entry
        :class:`~repro.net.messages.LabelBatch` per label, so the
        requester's execution manager treats a replayed label exactly like
        a first delivery.  Labels this host never produced (or lost, with
        output journaling off, to its own crash) are silently skipped — the
        requester's input timeout still backstops those.
        """

        now = self.scheduler.clock.now()
        for label in message.labels:
            key = (message.workflow_id, label)
            if key not in self._published:
                continue
            self.labels_replayed += 1
            self._send(
                LabelBatch(
                    sender=self.host_id,
                    recipient=message.sender,
                    workflow_id=message.workflow_id,
                    produced_by=self.host_id,
                    produced_at=now,
                    entries=(LabelEntry(label, self._published[key]),),
                )
            )

    def handle_progress_query(self, message: ProgressQuery) -> None:
        """Report again the asked-about tasks this host completed.

        An initiator whose liveness watchdog expired asks before it presumes
        this host dead: the progress report that carried a completion may
        have been lost in flight.  Completions come from :attr:`outcomes`
        and travel as an ordinary progress report; tasks this host has not
        completed (never heard of, still pending, or failed) get no answer,
        so the initiator's query rounds decide about those.
        """

        wanted = frozenset(message.task_names)
        completions = tuple(
            TaskCompletionRecord(
                task_name=outcome.commitment.task.name,
                completed_at=outcome.completed_at,
                outputs=frozenset(outcome.commitment.task.outputs),
            )
            for outcome in self.outcomes
            if outcome.succeeded
            and outcome.commitment.workflow_id == message.workflow_id
            and outcome.commitment.task.name in wanted
        )
        if completions:
            self._send(
                WorkflowProgressReport(
                    sender=self.host_id,
                    recipient=message.sender,
                    workflow_id=message.workflow_id,
                    completions=completions,
                )
            )

    def pending_invocations(self) -> list[PendingInvocation]:
        return list(self._pending.values())

    def pending_for_workflow(self, workflow_id: str) -> list[PendingInvocation]:
        return [
            inv for (wid, _), inv in self._pending.items() if wid == workflow_id
        ]

    # -- input arrival ---------------------------------------------------------
    def handle_label_batch(self, batch: LabelBatch) -> None:
        """Record every label of a batched delivery, in entry order."""

        for entry in batch.entries:
            self._deliver(batch.workflow_id, entry.label, entry.value)

    def _deliver(self, workflow_id: str, label: str, value: object) -> None:
        """Route one delivered label to the invocations awaiting it.

        One O(1) index lookup finds exactly the pending invocations whose
        task consumes the label; the old code scanned every pending
        invocation of the host per message.
        """

        bucket = self._watchers.get((workflow_id, label))
        if not bucket:
            # Late or unexpected data; harmless, but worth counting and
            # reporting to the initiator (the next flush pops the delta).
            self.unexpected_labels += 1
            self._unreported_unexpected[workflow_id] = (
                self._unreported_unexpected.get(workflow_id, 0) + 1
            )
            return
        for key in list(bucket):
            pending = self._pending.get(key)
            if pending is None:
                continue
            pending.received_inputs[label] = value
            if self.durability is not None:
                self.durability.input_received(workflow_id, key[1], label, value)
            self._maybe_execute(key)

    # -- condition check and execution ----------------------------------------------
    def _maybe_execute(self, key: _PendingKey) -> None:
        pending = self._pending.get(key)
        if pending is None or pending.started or pending.completed:
            return
        commitment = pending.commitment
        now = self.scheduler.clock.now()
        if now < commitment.start:
            return
        if not pending.inputs_satisfied():
            return
        pending.started = True
        if self.durability is not None:
            self.durability.invocation_fired(commitment.workflow_id, key[1])
        # The conditions were met in time; the abandonment and pull timers
        # are moot.
        pending.cancel_timers()
        self._running[commitment.workflow_id] = (
            self._running.get(commitment.workflow_id, 0) + 1
        )
        duration = max(
            commitment.task.duration, self.services.expected_duration(commitment.task)
        )
        self.scheduler.schedule_in(
            duration,
            lambda: self._complete(key),
            description=f"execute {commitment.task.name}",
        )

    def _expire(self, key: _PendingKey) -> None:
        """Abandon an invocation whose inputs never arrived (robust mode).

        The producer upstream is dead or partitioned away: release the
        commitment's schedule slot, forget the invocation, and report a
        *transient* failure so the initiator repairs by re-auctioning the
        task rather than excluding it — the task is fine, its data never
        came.
        """

        pending = self._pending.get(key)
        if pending is None or pending.started or pending.completed:
            return
        pending.cancel_timers()
        self.invocations_abandoned += 1
        missing = ", ".join(sorted(pending.missing_inputs()))
        self._fail(
            key,
            pending.commitment,
            f"abandoned: inputs [{missing}] never arrived within "
            f"{INPUT_TIMEOUT:g}s of the scheduled start",
            transient=True,
        )
        if self.schedule is not None:
            self.schedule.remove_commitment(pending.commitment.commitment_id)

    def _complete(self, key: _PendingKey) -> None:
        pending = self._pending.get(key)
        if pending is None or pending.completed:
            return
        commitment = pending.commitment
        workflow_id = commitment.workflow_id
        remaining = self._running.get(workflow_id, 1) - 1
        if remaining:
            self._running[workflow_id] = remaining
        else:
            self._running.pop(workflow_id, None)
        inputs = dict(pending.received_inputs)
        for trigger in commitment.trigger_labels:
            inputs.setdefault(trigger, {"trigger": True})
        try:
            outputs = self.services.invoke(commitment.task, inputs)
        except ExecutionError as exc:
            self._fail(key, commitment, str(exc))
            return

        pending.completed = True
        if self.durability is not None:
            self.durability.invocation_completed(workflow_id, key[1])
        sent_labels = self._publish_outputs(commitment, outputs)
        self.outcomes.append(
            CommitmentOutcome(
                commitment,
                completed_at=self.scheduler.clock.now(),
                succeeded=True,
                outputs_sent=sent_labels,
            )
        )
        self._notify_initiator(commitment, outputs)
        self._pending.pop(key, None)
        self._unwatch(key, commitment)

    def _fail(
        self,
        key: _PendingKey,
        commitment: Commitment,
        reason: str,
        transient: bool = False,
    ) -> None:
        """Settle an invocation as failed, forget it and report it at once.

        The failure flushes the progress report immediately, carrying any
        buffered completions, so the initiator starts workflow repair
        without delay.
        """

        self._pending.pop(key).completed = True
        self._unwatch(key, commitment)
        now = self.scheduler.clock.now()
        self.outcomes.append(
            CommitmentOutcome(
                commitment, completed_at=now, succeeded=False, failure_reason=reason
            )
        )
        if self.durability is not None:
            self.durability.invocation_failed(commitment.workflow_id, key[1], reason)
        if commitment.initiator:
            self._flush_report(
                commitment,
                failure=TaskFailureRecord(
                    task_name=commitment.task.name,
                    failed_at=now,
                    reason=reason,
                    transient=transient,
                ),
            )

    # -- output publication --------------------------------------------------------
    def _publish_outputs(
        self, commitment: Commitment, outputs: Mapping[str, object]
    ) -> frozenset[str]:
        """One :class:`LabelBatch` per destination host, labels in the
        order of the commitment's output destinations."""

        sent: set[str] = set()
        batches: dict[str, list[LabelEntry]] = {}
        for label, destinations in commitment.output_destinations.items():
            value = outputs.get(label)
            self._published[(commitment.workflow_id, label)] = value
            if self.durability is not None:
                # Write-ahead: the value is durable before any consumer sees
                # it, so a crash between journal and send loses nothing a
                # replay request can't recover.
                self.durability.label_published(commitment.workflow_id, label, value)
            for destination in destinations:
                batches.setdefault(destination, []).append(LabelEntry(label, value))
                sent.add(label)
        now = self.scheduler.clock.now()
        for destination, entries in batches.items():
            message = LabelBatch(
                sender=self.host_id,
                recipient=destination,
                workflow_id=commitment.workflow_id,
                produced_by=self.host_id,
                produced_at=now,
                entries=tuple(entries),
            )
            if destination == self.host_id:
                # Local delivery: same internals, no network crossing.
                self.handle_label_batch(message)
            else:
                self._send(message)
        return frozenset(sent)

    # -- progress reporting --------------------------------------------------------
    def _notify_initiator(
        self, commitment: Commitment, outputs: Mapping[str, object]
    ) -> None:
        if not commitment.initiator:
            return
        self._unsent_completions.setdefault(commitment.workflow_id, []).append(
            TaskCompletionRecord(
                task_name=commitment.task.name,
                completed_at=self.scheduler.clock.now(),
                outputs=frozenset(outputs),
            )
        )
        if self._running.get(commitment.workflow_id):
            # Another invocation of this workflow is executing right now; its
            # completion is already scheduled and will flush the report, so
            # this completion rides along instead of paying its own message.
            return
        self._flush_report(commitment)

    def _flush_report(
        self, commitment: Commitment, failure: TaskFailureRecord | None = None
    ) -> None:
        """Send one combined progress report for everything unreported."""

        workflow_id = commitment.workflow_id
        completions = tuple(self._unsent_completions.pop(workflow_id, ()))
        delta = self._unreported_unexpected.pop(workflow_id, 0)
        self._send(
            WorkflowProgressReport(
                sender=self.host_id,
                recipient=commitment.initiator,
                workflow_id=workflow_id,
                completions=completions,
                failures=(failure,) if failure is not None else (),
                unexpected_labels=delta,
            )
        )

    # -- reporting ---------------------------------------------------------------------
    @property
    def completed_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.succeeded)

    @property
    def failed_count(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.succeeded)

    def __repr__(self) -> str:
        return (
            f"ExecutionManager(host={self.host_id!r}, pending={len(self._pending)}, "
            f"completed={self.completed_count})"
        )
