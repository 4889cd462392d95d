"""The Workflow Manager: the core of the construction subsystem.

The Workflow Manager (paper, Section 4.2) "issues queries to discover
knowhow and capabilities, integrates the responses into the graph, and
constructs the open workflow.  It then delegates to the Auction Manager the
job of allocating each task to a suitable host."  It keeps a separate
:class:`~repro.host.workspace.Workspace` per open workflow so multiple
problems can be in flight concurrently.

Discovery is the batch algorithm of Section 3.1, the one the paper's
evaluation runs: ask every participant for all of its fragments, build the
supergraph once every response has arrived, then colour it.  The
incremental variant, which asks only about the labels at the boundary of
the coloured region, is a library algorithm
(:class:`~repro.core.incremental.IncrementalConstructor`) that the
discovery ablation measures.

**The shared knowledge plane.**  By default every workspace of a manager
shares one long-lived :class:`~repro.core.supergraph.Supergraph` (and hence
the solver's memoized colouring cache, which is keyed by graph identity).
Workspace-local state — phase, exclusions, statistics, timing — stays
per-workspace; only the accumulated community knowledge is shared.  The
manager keeps two marks against that plane:

* its own fragment manager's ingestion version, so ``submit()`` seeds only
  local know-how added since the previous submission;
* the set of *synced* remotes.  A know-how query asks a remote for
  everything the plane does not hold (its exclusion list is the plane's
  fragment ids); once the remote has answered, the plane holds all it
  knew, and it is not queried again for the lifetime of the community.
  Repeat workflows on a host therefore cost traffic and recolouring
  proportional to *new* knowledge, not community size.

One semantic difference from a graph per workspace is that knowledge, once
learned, persists: fragments collected for an earlier workflow remain
available even if the contributing host has since left the community, and
a new device that reuses a departed host's id is not asked again.  The
equivalence property suite compares every workspace with a fresh
supergraph of the same fragments.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Iterable

from ..allocation.auction import AllocationOutcome, AuctionManager
from ..core.solver import Solver, make_solver
from ..core.specification import Specification
from ..core.supergraph import Supergraph
from ..discovery.capability import CapabilityDirectory
from ..discovery.knowhow import FragmentManager
from ..execution.services import ServiceManager
from ..net.messages import (
    CapabilityQuery,
    CapabilityResponse,
    FragmentQuery,
    FragmentResponse,
    Message,
    ProgressQuery,
    WorkflowProgressReport,
)
from ..sim.events import EventHandle, EventScheduler
from ..sim.randomness import backoff_delay, derive_rng
from .workspace import Workspace, WorkflowPhase, next_workflow_id

SendFunction = Callable[[Message], None]
WorkspaceCallback = Callable[[Workspace], None]

#: Robust mode: simulated seconds a discovery round waits for answers
#: before re-querying the silent remotes (grown by backoff).
DISCOVERY_TIMEOUT = 15.0
#: Robust mode: discovery rounds before silent remotes are written off.
MAX_DISCOVERY_ATTEMPTS = 3
#: Robust mode: simulated seconds an executing workflow may go without
#: progress before the executors of its outstanding tasks are asked.
LIVENESS_TIMEOUT = 120.0
#: Robust mode: simulated seconds a ``ProgressQuery`` round waits for an
#: answer before the next round (grown by backoff).
PROGRESS_QUERY_TIMEOUT = 10.0
#: Robust mode: unanswered ``ProgressQuery`` rounds before the executors are
#: presumed dead, the workflow fails transiently and repair takes over.
MAX_PROGRESS_QUERIES = 3


class WorkflowManager:
    """Drives discovery, construction, and allocation for one host's problems.

    Parameters
    ----------
    host_id:
        The initiating host this manager belongs to.
    scheduler:
        Shared event scheduler (time source).
    send:
        Callback handing outgoing messages to the communications layer.
    fragments:
        The host's own fragment manager; local know-how never crosses the
        network.
    auction:
        The host's auction manager, used for the allocation phase.
    solver:
        Construction strategy (a :class:`~repro.core.solver.Solver`
        instance, a registry name like ``"coloring"`` or ``"memoized"``, or
        ``None`` for the default memoized solver).  With the memoized
        solver, later solves on the shared plane — a repair, a repeat
        workflow — reuse the cached green region and recolor only the
        fragments that arrived in between.
    """

    def __init__(
        self,
        host_id: str,
        scheduler: EventScheduler,
        send: SendFunction,
        fragments: FragmentManager,
        auction: AuctionManager,
        capability_aware: bool = False,
        local_services: ServiceManager | None = None,
        enable_recovery: bool = False,
        max_repair_attempts: int = 3,
        solver: Solver | str | None = None,
        robust: bool = False,
        durability=None,
    ) -> None:
        self.host_id = host_id
        self.scheduler = scheduler
        self._send = send
        self.fragments = fragments
        self.auction = auction
        self.capability_aware = capability_aware
        self.local_services = local_services
        self.enable_recovery = enable_recovery
        self.max_repair_attempts = max_repair_attempts
        self.durability = durability
        self.capabilities = CapabilityDirectory()
        self.solver = make_solver(solver)
        #: The host's knowledge plane: one supergraph for every workspace.
        self.supergraph = Supergraph()
        self._seeded_local_version = 0
        #: Remotes that answered a discovery round: the plane holds all
        #: they knew, so they are not queried again.
        self._synced_remotes: set[str] = set()
        #: Fault hardening (``fault_injection``): discovery queries are
        #: retried with backoff and silent remotes eventually written off,
        #: and an executing workflow that makes no progress for
        #: ``LIVENESS_TIMEOUT`` simulated seconds asks the executors of its
        #: outstanding tasks (``ProgressQuery``) and, after
        #: ``MAX_PROGRESS_QUERIES`` unanswered rounds, is failed transiently
        #: so repair re-auctions those tasks (a silent executor death
        #: otherwise hangs the initiator forever).  Off by default; when on,
        #: a fault-free run's timers are all cancelled before they fire, so
        #: outcomes are unchanged.
        self.robust = robust
        #: The stream of this host's discovery-retry jitter, separate from
        #: the auction manager's (robust mode only, so a clean run stays
        #: byte-identical).
        self._jitter_rng = (
            derive_rng(0, "retry-jitter", host_id, "discovery") if robust else None
        )
        #: Discovery queries re-sent because the first copy went unanswered.
        self.discovery_retries = 0
        #: Liveness expiries converted into transient failures.
        self.liveness_timeouts = 0
        self._discovery_timers: dict[str, EventHandle] = {}
        self._liveness_timers: dict[str, EventHandle] = {}
        self._workspaces: dict[str, Workspace] = {}
        self._on_allocated: dict[str, WorkspaceCallback] = {}
        self._on_completed: dict[str, WorkspaceCallback] = {}

    # -- public API ------------------------------------------------------------
    def submit(
        self,
        specification: Specification,
        participants: Iterable[str],
        on_allocated: WorkspaceCallback | None = None,
        on_completed: WorkspaceCallback | None = None,
        excluded_tasks: Iterable[str] = (),
        repair_of: str | None = None,
        repair_attempt: int = 0,
    ) -> Workspace:
        """Start working on a new problem; returns its workspace immediately.

        ``participants`` are the community members to involve (normally every
        reachable host plus the initiator itself).  Progress is reported via
        the optional callbacks and can always be inspected on the returned
        workspace.  ``excluded_tasks`` forbids specific tasks during
        construction — used by workflow repair to route around tasks whose
        execution has already failed.  Every workspace builds on the
        manager's one supergraph, so a repair reuses the solver's cached
        colouring and the community knowledge instead of rediscovering them.
        """

        participant_set = frozenset(participants) | {self.host_id}
        workflow_id = next_workflow_id(self.host_id)
        workspace = Workspace(
            workflow_id=workflow_id,
            specification=specification,
            participants=participant_set,
        )
        workspace.durability = self.durability
        if self.durability is not None:
            self.durability.workspace_opened(
                workflow_id,
                specification,
                participant_set,
                frozenset(excluded_tasks),
                repair_of,
                repair_attempt,
            )
        workspace.supergraph = self.supergraph
        workspace.excluded_tasks = set(excluded_tasks)
        workspace.repair_of = repair_of
        workspace.repair_attempt = repair_attempt
        workspace.mark("submitted", self.scheduler.clock.now())
        self._workspaces[workflow_id] = workspace
        if on_allocated is not None:
            self._on_allocated[workflow_id] = on_allocated
        if on_completed is not None:
            self._on_completed[workflow_id] = on_completed

        # The initiator's own know-how seeds the supergraph without any
        # network traffic: only fragments added since the previous
        # submission are merged (one journaled batch).
        workspace.fragments_reused = self.supergraph.fragment_count
        new_local = self.fragments.fragments_since(self._seeded_local_version)
        workspace.fragments_collected += self.supergraph.add_fragments_batch(new_local)
        self._seeded_local_version = self.fragments.version

        self._start_discovery(workspace)
        return workspace

    def workspace(self, workflow_id: str) -> Workspace | None:
        return self._workspaces.get(workflow_id)

    def workspaces(self) -> list[Workspace]:
        return list(self._workspaces.values())

    # -- discovery -----------------------------------------------------------------
    def _remote_participants(self, workspace: Workspace) -> list[str]:
        return sorted(workspace.participants - {self.host_id})

    def _start_discovery(self, workspace: Workspace) -> None:
        workspace.enter_phase(WorkflowPhase.DISCOVERY, self.scheduler.clock.now())
        remotes = self._remote_participants(workspace)
        unsynced = [r for r in remotes if r not in self._synced_remotes]
        workspace.remotes_skipped += len(remotes) - len(unsynced)
        if not unsynced:
            # The shared plane already holds every participant's knowledge
            # (or there is no one to ask): no traffic needed.
            self._after_discovery(workspace)
            return
        self._query_fragments(workspace, unsynced)

    def _query_fragments(self, workspace: Workspace, remotes: list[str]) -> None:
        """One discovery round: ask each of ``remotes`` for its know-how."""

        workspace.discovery_rounds += 1
        workspace.awaiting_fragment_responses = set(remotes)
        for remote in remotes:
            self._send_fragment_query(workspace, remote)
        self._arm_discovery_timer(workspace, attempt=1)

    def _send_fragment_query(self, workspace: Workspace, remote: str) -> None:
        """Ask ``remote`` for everything the plane does not already hold."""

        self._send(
            FragmentQuery(
                sender=self.host_id,
                recipient=remote,
                exclude_fragment_ids=workspace.supergraph.fragment_ids,
                workflow_id=workspace.workflow_id,
            )
        )

    # -- discovery fault hardening ---------------------------------------------------
    def _arm_discovery_timer(self, workspace: Workspace, attempt: int) -> None:
        """Robust mode: bound how long one discovery round may stay silent."""

        if not self.robust:
            return
        workflow_id = workspace.workflow_id
        self._cancel_discovery_timer(workflow_id)
        self._discovery_timers[workflow_id] = self.scheduler.schedule_in(
            backoff_delay(DISCOVERY_TIMEOUT, attempt, self._jitter_rng),
            lambda: self._discovery_deadline(workflow_id, attempt),
            description=f"discovery-timeout {workflow_id}",
        )

    def _cancel_discovery_timer(self, workflow_id: str) -> None:
        handle = self._discovery_timers.pop(workflow_id, None)
        if handle is not None:
            handle.cancel()

    def _discovery_deadline(self, workflow_id: str, attempt: int) -> None:
        """A discovery round expired: re-query the silent, or write them off.

        Up to ``MAX_DISCOVERY_ATTEMPTS`` rounds the missing remotes are
        re-queried.  After that the silent remotes are treated as departed:
        discovery proceeds on the knowledge that did arrive, so a crashed
        participant costs its know-how, never the workflow.  If
        construction then fails, the repair asks them again.
        """

        self._discovery_timers.pop(workflow_id, None)
        workspace = self._workspaces.get(workflow_id)
        if workspace is None or workspace.phase is not WorkflowPhase.DISCOVERY:
            return
        missing_fragments = sorted(workspace.awaiting_fragment_responses)
        missing_capabilities = sorted(workspace.awaiting_capability_responses)
        if not missing_fragments and not missing_capabilities:
            return
        if attempt < MAX_DISCOVERY_ATTEMPTS:
            self.discovery_retries += len(missing_fragments) + len(
                missing_capabilities
            )
            for remote in missing_fragments:
                self._send_fragment_query(workspace, remote)
            if missing_capabilities:
                service_types = self._queried_service_types(workspace)
                for remote in missing_capabilities:
                    self._send(
                        CapabilityQuery(
                            sender=self.host_id,
                            recipient=remote,
                            service_types=service_types,
                            workflow_id=workspace.workflow_id,
                        )
                    )
            self._arm_discovery_timer(workspace, attempt + 1)
            return
        workspace.awaiting_fragment_responses -= set(missing_fragments)
        workspace.awaiting_capability_responses -= set(missing_capabilities)
        if missing_fragments and not workspace.awaiting_fragment_responses:
            self._after_discovery(workspace)
        elif missing_capabilities and not workspace.awaiting_capability_responses:
            self._run_construction(workspace)

    def handle_fragment_response(self, response: FragmentResponse) -> None:
        """Integrate a participant's know-how into the right workspace.

        The whole response is merged as one journaled batch: the graph
        version advances once and a later re-solve recolors one dirty
        frontier, however many fragments the participant returned.
        """

        workspace = self._workspaces.get(response.workflow_id)
        if workspace is None or workspace.phase is not WorkflowPhase.DISCOVERY:
            return
        # A response from a sender the round is not waiting on — a fault-plane
        # duplicate, or a late answer after a retry already covered it — still
        # contributes its fragments (merging deduplicates) but must not drive
        # the phase machine a second time.
        was_awaited = response.sender in workspace.awaiting_fragment_responses
        workspace.fragment_responses_received += 1
        workspace.fragments_collected += workspace.supergraph.add_fragments_batch(
            response.fragments
        )
        if self.durability is not None:
            # Journal the response so a restarted initiator re-queries only
            # the remotes that never answered, with the answered remotes'
            # know-how replayed from the journal instead of the network.
            self.durability.discovery_response(
                workspace.workflow_id, response.sender, response.fragments
            )
        if not was_awaited:
            return
        # The plane now holds everything the sender knew.
        self._synced_remotes.add(response.sender)
        workspace.awaiting_fragment_responses.discard(response.sender)
        if not workspace.awaiting_fragment_responses:
            self._after_discovery(workspace)

    # -- capability discovery ----------------------------------------------------------
    def _after_discovery(self, workspace: Workspace) -> None:
        """Fragment discovery is done; optionally learn capabilities, then construct."""

        if self.local_services is not None:
            self.capabilities.record_offering(
                self.host_id, self.local_services.service_types
            )
        remotes = self._remote_participants(workspace)
        if not self.capability_aware or not remotes:
            self._run_construction(workspace)
            return
        service_types = self._queried_service_types(workspace)
        workspace.awaiting_capability_responses = set(remotes)
        for remote in remotes:
            self._send(
                CapabilityQuery(
                    sender=self.host_id,
                    recipient=remote,
                    service_types=service_types,
                    workflow_id=workspace.workflow_id,
                )
            )
        self._arm_discovery_timer(workspace, attempt=1)

    def _queried_service_types(self, workspace: Workspace) -> frozenset[str]:
        """The service types capability discovery asks the community about."""

        return frozenset(
            task.service_type
            for task in workspace.supergraph.tasks.values()
            if task.service_type is not None
        )

    def handle_capability_response(self, response: CapabilityResponse) -> None:
        """Record which services a participant offers and resume construction."""

        self.capabilities.record_response(response)
        workspace = self._workspaces.get(response.workflow_id)
        if workspace is None or workspace.phase is not WorkflowPhase.DISCOVERY:
            return
        was_awaited = response.sender in workspace.awaiting_capability_responses
        workspace.capability_responses_received += 1
        workspace.awaiting_capability_responses.discard(response.sender)
        if was_awaited and not workspace.awaiting_capability_responses:
            self._run_construction(workspace)

    # -- construction -----------------------------------------------------------------
    def _capability_filter(self, task) -> bool:
        """Capability-aware filter: keep tasks whose service someone can provide."""

        if not self.capability_aware:
            return True
        service_type = task.service_type
        if service_type is None:
            return True
        if self.capabilities.is_available(service_type):
            return True
        return self.local_services is not None and self.local_services.provides(
            service_type
        )

    def _workspace_task_filter(self, workspace: Workspace):
        """Combined construction filter: capability coverage + repair exclusions."""

        if not self.capability_aware and not workspace.excluded_tasks:
            return None
        excluded = frozenset(workspace.excluded_tasks)

        def allowed(task) -> bool:
            if task.name in excluded:
                return False
            return self._capability_filter(task)

        return allowed

    def _filter_token(self, workspace: Workspace):
        """Hashable fingerprint of the workspace's task filter behaviour.

        The filter is a pure function of the excluded-task set and (when
        capability-aware) the set of service types some participant offers,
        so those two ingredients key the solver's memoization safely: any
        capability response or repair exclusion that would change filter
        decisions also changes the token.
        """

        if not self.capability_aware and not workspace.excluded_tasks:
            return None
        available: frozenset[str] = frozenset()
        if self.capability_aware:
            available = self.capabilities.available_service_types()
            if self.local_services is not None:
                available |= self.local_services.service_types
        return (frozenset(workspace.excluded_tasks), available)

    def _run_construction(self, workspace: Workspace) -> None:
        self._cancel_discovery_timer(workspace.workflow_id)
        workspace.enter_phase(WorkflowPhase.CONSTRUCTION, self.scheduler.clock.now())
        result = self.solver.solve(
            workspace.supergraph,
            workspace.specification,
            task_filter=self._workspace_task_filter(workspace),
            filter_token=self._filter_token(workspace),
        )
        workspace.construction_result = result
        workspace.mark("constructed", self.scheduler.clock.now())
        if not result.succeeded:
            workspace.fail(
                f"construction failed: {result.reason}", self.scheduler.clock.now()
            )
            self._notify_allocated(workspace)
            # A remote that never answered (written off as silent, or not
            # asked since this host restarted) never put its know-how into
            # the plane; the repair's discovery asks it, and only it, again.
            if any(
                remote not in self._synced_remotes
                for remote in self._remote_participants(workspace)
            ):
                self._submit_repair(workspace, set(workspace.excluded_tasks))
            return
        workflow = result.workflow
        assert workflow is not None
        workspace.expected_tasks = set(workflow.task_names)
        self._start_allocation(workspace)

    # -- allocation ----------------------------------------------------------------------
    def _start_allocation(self, workspace: Workspace) -> None:
        workspace.enter_phase(WorkflowPhase.ALLOCATION, self.scheduler.clock.now())
        workflow = workspace.workflow
        assert workflow is not None
        self.auction.start_auction(
            workflow_id=workspace.workflow_id,
            workflow=workflow,
            specification=workspace.specification,
            participants=workspace.participants,
            on_complete=lambda outcome: self._on_allocation_complete(
                workspace, outcome
            ),
        )

    def _on_allocation_complete(
        self, workspace: Workspace, outcome: AllocationOutcome
    ) -> None:
        workspace.allocation_outcome = outcome
        workspace.mark("allocated", self.scheduler.clock.now())
        if not outcome.succeeded:
            reasons = "; ".join(
                f"{task}: {reason}" for task, reason in sorted(outcome.unallocated.items())
            )
            workspace.fail(f"allocation failed: {reasons}", self.scheduler.clock.now())
            self._notify_allocated(workspace)
            # A task nobody bid on blames the situation (its hosts crashed or
            # went silent), like a transient failure, so the repair keeps it.
            self._submit_repair(workspace, set(workspace.excluded_tasks))
            return
        if self.durability is not None:
            # The award record makes the allocation replayable: a restarted
            # initiator knows exactly which tasks it is waiting on and who
            # won them, without re-auctioning anything.
            self.durability.workspace_awarded(
                workspace.workflow_id,
                dict(outcome.allocation),
                tuple(sorted(workspace.expected_tasks)),
            )
        workspace.enter_phase(WorkflowPhase.EXECUTING, self.scheduler.clock.now())
        self._notify_allocated(workspace)
        if not workspace.expected_tasks:
            self._mark_completed(workspace)
            return
        self._arm_liveness(workspace)

    def _notify_allocated(self, workspace: Workspace) -> None:
        callback = self._on_allocated.get(workspace.workflow_id)
        if callback is not None:
            callback(workspace)

    # -- execution liveness (fault hardening) --------------------------------------
    def _arm_liveness(self, workspace: Workspace, queries: int = 0) -> None:
        """(Re-)start the initiator-side no-progress watchdog for a workflow.

        Armed when execution starts and re-armed on every completion (which
        also resets the query count); an executing workflow whose watchdog
        fires made no progress for ``LIVENESS_TIMEOUT`` simulated seconds.
        Either a progress report was lost or some executor died holding an
        outstanding task, so the expiry first asks, and the watchdog waits
        the shorter ``PROGRESS_QUERY_TIMEOUT`` (with backoff) after each of
        ``queries`` rounds sent.
        """

        if not self.robust:
            return
        workflow_id = workspace.workflow_id
        self._cancel_liveness(workflow_id)
        delay = (
            backoff_delay(PROGRESS_QUERY_TIMEOUT, queries, self._jitter_rng)
            if queries
            else LIVENESS_TIMEOUT
        )
        self._liveness_timers[workflow_id] = self.scheduler.schedule_in(
            delay,
            lambda: self._liveness_deadline(workflow_id, queries),
            description=f"liveness-timeout {workflow_id}",
        )

    def _cancel_liveness(self, workflow_id: str) -> None:
        handle = self._liveness_timers.pop(workflow_id, None)
        if handle is not None:
            handle.cancel()

    def _liveness_deadline(self, workflow_id: str, queries: int) -> None:
        """No progress: ask the outstanding tasks' executors, or give up.

        Up to ``MAX_PROGRESS_QUERIES`` rounds, each executor of an
        outstanding task gets one ``ProgressQuery`` naming its tasks; an
        answer arrives as an ordinary progress report, and any completion
        re-arms the full watchdog.  Only when every round goes unanswered,
        or when some outstanding task has no executor to ask (its re-auction
        found no bidder), is the silence converted into a transient task
        failure, so the normal repair path re-auctions the outstanding
        tasks.
        """

        self._liveness_timers.pop(workflow_id, None)
        workspace = self._workspaces.get(workflow_id)
        if workspace is None or workspace.phase is not WorkflowPhase.EXECUTING:
            return
        outstanding = sorted(workspace.expected_tasks - workspace.completed_tasks)
        if not outstanding:
            return
        if queries < MAX_PROGRESS_QUERIES and self._query_progress(
            workspace, outstanding
        ):
            self._arm_liveness(workspace, queries + 1)
            return
        self.liveness_timeouts += 1
        self.handle_task_failed(
            workspace,
            outstanding[0],
            f"no progress for {LIVENESS_TIMEOUT:g}s with "
            f"{len(outstanding)} task(s) outstanding (executor presumed dead)",
            transient=True,
        )

    def _query_progress(self, workspace: Workspace, outstanding: list[str]) -> bool:
        """One ``ProgressQuery`` to each executor of an outstanding task.

        Returns ``False``, asking no one, when some outstanding task has no
        executor: no answer could complete the revision then.
        """

        outcome = workspace.allocation_outcome
        # A restored revision whose every winner was lost has no outcome.
        allocation = outcome.allocation if outcome is not None else {}
        if any(task_name not in allocation for task_name in outstanding):
            return False
        by_executor: dict[str, list[str]] = {}
        for task_name in outstanding:
            by_executor.setdefault(allocation[task_name], []).append(task_name)
        for executor, task_names in sorted(by_executor.items()):
            self._send(
                ProgressQuery(
                    sender=self.host_id,
                    recipient=executor,
                    workflow_id=workspace.workflow_id,
                    task_names=tuple(task_names),
                )
            )
        return True

    # -- execution progress ------------------------------------------------------------------
    def handle_progress_report(self, report: WorkflowProgressReport) -> None:
        """Apply a progress report: completions first, then failures."""

        workspace = self._workspaces.get(report.workflow_id)
        if workspace is None:
            return
        workspace.unexpected_labels += report.unexpected_labels
        for completion in report.completions:
            self._record_completed(workspace, completion.task_name)
        for failure in report.failures:
            self.handle_task_failed(
                workspace, failure.task_name, failure.reason, failure.transient
            )

    def _record_completed(self, workspace: Workspace, task_name: str) -> None:
        workspace.completed_tasks.add(task_name)
        if self.durability is not None:
            self.durability.workspace_task_completed(workspace.workflow_id, task_name)
        if workspace.phase is not WorkflowPhase.EXECUTING:
            return
        if workspace.all_tasks_completed:
            self._mark_completed(workspace)
        else:
            # Progress was made: give the remaining tasks a fresh window.
            self._arm_liveness(workspace)

    def _mark_completed(self, workspace: Workspace) -> None:
        self._cancel_liveness(workspace.workflow_id)
        workspace.enter_phase(WorkflowPhase.COMPLETED, self.scheduler.clock.now())
        workspace.mark("completed", self.scheduler.clock.now())
        callback = self._on_completed.get(workspace.workflow_id)
        if callback is not None:
            callback(workspace)

    # -- workflow repair ------------------------------------------------------------
    def handle_task_failed(
        self,
        workspace: Workspace,
        task_name: str,
        reason: str,
        transient: bool = False,
    ) -> None:
        """React to an execution failure: optionally construct a repaired workflow.

        Every failure record of a progress report lands here, and so does
        the liveness watchdog's verdict.  The failing workspace is marked
        failed.  When recovery is enabled the manager submits a *repair*:
        the same specification, constructed again over the
        already-collected community knowledge with the failed tasks
        excluded, then re-auctioned.  Compensation of work already
        performed by the failed workflow is out of scope (it is listed as
        future work in the paper as well).
        """

        self._cancel_liveness(workspace.workflow_id)
        workspace.failed_tasks.add(task_name)
        if transient:
            workspace.transient_failures.add(task_name)
        if workspace.phase is not WorkflowPhase.FAILED:
            workspace.fail(
                f"task {task_name!r} failed during execution: {reason}",
                self.scheduler.clock.now(),
            )
        # Transient failures blame the situation (executor crash, starved
        # inputs), not the task: the repair may re-auction them to another
        # capable host.  Only tasks that failed on their own merits are
        # excluded from the repaired workflow.
        excluded = set(workspace.excluded_tasks) | (
            set(workspace.failed_tasks) - workspace.transient_failures
        )
        self._submit_repair(workspace, excluded)

    def _submit_repair(self, workspace: Workspace, excluded: set[str]) -> None:
        """Submit the repair revision of a failed ``workspace`` and link the
        chain, when recovery is on and the chain has attempts left."""

        if not self.enable_recovery or workspace.repaired_by is not None:
            return
        if workspace.repair_attempt >= self.max_repair_attempts:
            return
        repaired = self.submit(
            workspace.specification,
            workspace.participants,
            excluded_tasks=excluded,
            repair_of=workspace.workflow_id,
            repair_attempt=workspace.repair_attempt + 1,
        )
        workspace.repaired_by = repaired.workflow_id
        if self.durability is not None:
            self.durability.workspace_repaired(
                workspace.workflow_id, repaired.workflow_id
            )

    # -- durable recovery --------------------------------------------------------
    def restore_workspaces(self, records) -> None:
        """Rebuild workspaces from replayed journal state after a restart.

        ``records`` are :class:`~repro.durability.plane.WorkspaceState`
        values.  Terminal workspaces (completed/failed) are restored as
        records so repair chains stay followable.  An EXECUTING workspace
        resumes: its allocation and progress are replayed, and the liveness
        watchdog re-armed so executors lost during the outage still convert
        into repair.  A workspace caught mid-construction resumes from its
        last durable phase: journaled discovery responses are merged back
        into the supergraph and only the remotes that never answered are
        re-queried; construction re-runs locally (it is deterministic over
        the restored graph); and a mid-allocation crash restarts the
        auction — no award was sent before the auction completed, so no
        participant holds a commitment the restarted auction would
        contradict.

        The mechanical reconstruction is journal-suspended (the journal
        already holds those records); the messages and phase transitions a
        resume *newly* performs are not.
        """

        now = self.scheduler.clock.now()
        resumable: list[tuple[Workspace, object]] = []
        executing: list[Workspace] = []
        for record in records:
            if record.workflow_id in self._workspaces:
                continue
            workspace = Workspace(
                workflow_id=record.workflow_id,
                specification=record.specification,
                participants=frozenset(record.participants),
            )
            workspace.durability = self.durability
            workspace.supergraph = self.supergraph
            workspace.excluded_tasks = set(record.excluded_tasks)
            workspace.repair_of = record.repair_of
            workspace.repair_attempt = record.repair_attempt
            workspace.repaired_by = record.repaired_by
            workspace.expected_tasks = set(record.expected_tasks)
            workspace.completed_tasks = set(record.completed_tasks)
            workspace.failure_reason = record.failure_reason
            workspace.mark("submitted", now)
            if record.allocation:
                workspace.allocation_outcome = AllocationOutcome(
                    workflow_id=record.workflow_id,
                    allocation=dict(record.allocation),
                )
            phase = WorkflowPhase(record.phase)
            suspender = (
                self.durability.suspended()
                if self.durability is not None
                else nullcontext()
            )
            with suspender:
                # Re-entering a replayed phase must not re-journal it.
                if phase in (
                    WorkflowPhase.COMPLETED,
                    WorkflowPhase.FAILED,
                    WorkflowPhase.EXECUTING,
                ):
                    workspace.enter_phase(phase, now)
            self._workspaces[record.workflow_id] = workspace
            if phase is WorkflowPhase.EXECUTING:
                executing.append(workspace)
            elif phase not in (WorkflowPhase.COMPLETED, WorkflowPhase.FAILED):
                resumable.append((workspace, record))
        if resumable:
            # Seed the restored shared plane with local know-how, exactly as
            # submit() would have (the fragment manager was rebuilt from the
            # journal before this runs).
            self.supergraph.add_fragments_batch(
                self.fragments.fragments_since(self._seeded_local_version)
            )
            self._seeded_local_version = self.fragments.version
        for workspace in executing:
            if workspace.all_tasks_completed:
                # The last completion was journaled but the phase transition
                # never was (the crash hit in between): finish the bookkeeping.
                self._mark_completed(workspace)
            else:
                self._arm_liveness(workspace)
        for workspace, record in resumable:
            if record.discovered:
                # Know-how already paid for over the network: replayed from
                # the journal instead of re-queried.
                workspace.supergraph.add_fragments_batch(record.discovered)
            self._resume_construction(workspace, record, now)

    def _resume_construction(self, workspace: Workspace, record, now: float) -> None:
        """Pick a restored workspace back up from its last durable phase."""

        phase = WorkflowPhase(record.phase)
        if phase is WorkflowPhase.CREATED:
            # Discovery never started: begin it from scratch.
            self._start_discovery(workspace)
            return
        if phase is WorkflowPhase.DISCOVERY:
            suspender = (
                self.durability.suspended()
                if self.durability is not None
                else nullcontext()
            )
            with suspender:
                # The discovery transition is already journaled.
                workspace.enter_phase(WorkflowPhase.DISCOVERY, now)
            remotes = self._remote_participants(workspace)
            silent = [r for r in remotes if r not in record.responded]
            if not silent:
                self._after_discovery(workspace)
                return
            # Query the remotes the crashed round never heard from; the
            # exclusion list carries the restored graph's ids, so replayed
            # knowledge is not re-transferred.
            self._query_fragments(workspace, silent)
            return
        if record.allocation:
            # Real-world torn crash between the journaled auction outcome
            # and the executing transition (one atomic event under the
            # simulator, so only reachable with a physical backend dying
            # mid-sequence): trust the journaled allocation and resume as
            # executing rather than contradict awards that may be in flight.
            workspace.expected_tasks = set(record.expected_tasks) or set(
                record.allocation
            )
            if self.durability is not None:
                self.durability.workspace_awarded(
                    workspace.workflow_id,
                    dict(record.allocation),
                    tuple(sorted(workspace.expected_tasks)),
                )
            workspace.enter_phase(WorkflowPhase.EXECUTING, now)
            if workspace.all_tasks_completed:
                self._mark_completed(workspace)
            else:
                self._arm_liveness(workspace)
            return
        # CONSTRUCTION or ALLOCATION: everything construction needs is local
        # again (the supergraph was restored above) and solving is
        # deterministic.  A mid-allocation crash restarts the whole auction:
        # awards are only sent once every task auction has finalized, so no
        # participant committed to the aborted round.
        self._run_construction(workspace)

    def final_workspace(self, workflow_id: str) -> Workspace | None:
        """Follow the repair chain from ``workflow_id`` to its last revision."""

        workspace = self._workspaces.get(workflow_id)
        while workspace is not None and workspace.repaired_by is not None:
            workspace = self._workspaces.get(workspace.repaired_by)
        return workspace

    def __repr__(self) -> str:
        return (
            f"WorkflowManager(host={self.host_id!r}, "
            f"workspaces={len(self._workspaces)})"
        )
