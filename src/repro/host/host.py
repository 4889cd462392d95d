"""A host: one participant's device running the open workflow middleware.

A host composes every component of the architecture diagram (paper,
Figure 3).  The *execution subsystem* — Fragment Manager, Service Manager,
Schedule Manager, Auction Participation Manager, Execution Manager — is
always present, because every host may act as a participant.  The
*construction subsystem* — Workflow Initiator, Workflow Manager, Auction
Manager — is also instantiated on every host, because any member of the
community may identify a need and become the initiator for that problem.

All communication, even host-local deliveries, passes through the abstract
communications layer, honouring the paper's design principle that "passing
messages through an intermediary ensures that local and remote components
are accessed uniformly".
"""

from __future__ import annotations

from typing import Iterable

from ..allocation.auction import AuctionManager
from ..allocation.participation import AuctionParticipationManager
from ..core.fragments import WorkflowFragment
from ..core.specification import Specification
from ..discovery.knowhow import FragmentManager
from ..durability.plane import HostDurability
from ..execution.engine import ExecutionManager
from ..execution.services import ServiceDescription, ServiceManager
from ..mobility.geometry import Point
from ..mobility.locations import LocationDirectory, TravelModel
from ..mobility.models import MobilityModel
from ..net.messages import (
    AwardAck,
    AwardBatch,
    AwardRejected,
    BidBatch,
    CallForBidsBatch,
    CapabilityQuery,
    CapabilityResponse,
    FragmentQuery,
    FragmentResponse,
    LabelBatch,
    LabelReplayRequest,
    Message,
    ProgressQuery,
    WorkflowProgressReport,
)
from ..net.transport import CommunicationsLayer, Outbox
from ..scheduling.preferences import ALWAYS_WILLING, ParticipantPreferences
from ..scheduling.schedule import ScheduleManager
from ..sim.events import EventScheduler, ScopedScheduler
from .config import HostConfig
from .initiator import WorkflowInitiator
from .workflow_manager import WorkflowManager
from .workspace import Workspace


class Host:
    """One device (and its user) participating in the open workflow community.

    Parameters
    ----------
    host_id:
        Unique name of the host within the community.
    network:
        The communications layer shared by the community.
    scheduler:
        The shared event scheduler.
    fragments:
        The know-how initially stored on the device.
    services:
        The capabilities the device (or its user) offers.
    locations / travel_model / mobility / preferences:
        Scheduling and mobility configuration; sensible defaults are used
        when omitted.
    config:
        The middleware's options (see :class:`~repro.host.config.HostConfig`).
    durability:
        The durable state plane resolved from ``config.durability``: a
        :class:`~repro.durability.plane.HostDurability` wrapping a backend
        that outlives this incarnation, or ``None`` when durability is
        off.  The community owns the backend and resolves it.
    """

    def __init__(
        self,
        host_id: str,
        network: CommunicationsLayer,
        scheduler: EventScheduler,
        fragments: Iterable[WorkflowFragment] = (),
        services: Iterable[ServiceDescription] = (),
        locations: LocationDirectory | None = None,
        travel_model: TravelModel | None = None,
        mobility: MobilityModel | Point | None = None,
        preferences: ParticipantPreferences = ALWAYS_WILLING,
        config: HostConfig = HostConfig(),
        durability: HostDurability | None = None,
    ) -> None:
        self.host_id = host_id
        self.network = network
        self.scheduler = scheduler
        self.config = config
        #: Every state-owning manager write-ahead-journals through this plane.
        self.durability = durability
        self.crashed = False
        #: Every timer this host's components arm goes through a scoped view
        #: of the shared scheduler, so ``crash()`` (and ``remove_host``) can
        #: cancel all of them at once instead of leaving dead hosts' events
        #: to fire into the void.
        self.scope = ScopedScheduler(scheduler)
        #: The managers send through the outbox rather than a bound method
        #: of this host, so none of them refers back to it; ``crash()``
        #: closes it.
        self.outbox = Outbox(network)
        self._send = self.outbox.send

        # Execution subsystem.
        self.fragment_manager = FragmentManager(
            host_id, fragments, durability=durability
        )
        self.service_manager = ServiceManager(host_id, services)
        self.schedule_manager = ScheduleManager(
            host_id,
            clock=scheduler.clock,
            locations=locations,
            travel_model=travel_model,
            mobility=mobility,
            preferences=preferences,
            durability=durability,
        )
        self.execution_manager = ExecutionManager(
            host_id,
            self.scope,
            self.service_manager,
            self._send,
            robust=config.fault_injection,
            schedule=self.schedule_manager,
            durability=durability,
        )
        self.participation_manager = AuctionParticipationManager(
            host_id,
            scheduler.clock,
            self.service_manager,
            self.schedule_manager,
            self.execution_manager,
        )

        # Construction subsystem.
        self.auction_manager = AuctionManager(
            host_id,
            self.scope,
            self._send,
            robust=config.fault_injection,
            durability=durability,
        )
        self.workflow_manager = WorkflowManager(
            host_id,
            self.scope,
            self._send,
            fragments=self.fragment_manager,
            auction=self.auction_manager,
            capability_aware=config.capability_aware,
            local_services=self.service_manager,
            enable_recovery=config.enable_recovery,
            max_repair_attempts=config.max_repair_attempts,
            solver=config.solver,
            robust=config.fault_injection,
            durability=durability,
        )
        self.initiator = WorkflowInitiator(host_id)

        self.messages_received = 0
        network.register(host_id, self.on_message)

    # -- user-facing API ---------------------------------------------------------
    def submit_problem(
        self,
        triggers: Iterable[str],
        goals: Iterable[str],
        name: str | None = None,
        participants: Iterable[str] | None = None,
    ) -> Workspace:
        """Create a specification and start constructing a workflow for it.

        ``participants`` defaults to every host currently reachable through
        the communications layer, plus this host itself.
        """

        specification = self.initiator.create_specification(triggers, goals, name=name)
        return self.submit_specification(specification, participants=participants)

    def submit_specification(
        self,
        specification: Specification,
        participants: Iterable[str] | None = None,
    ) -> Workspace:
        """Start constructing a workflow for an existing specification."""

        if participants is None:
            participants = self.network.reachable_from(self.host_id)
        return self.workflow_manager.submit(specification, participants)

    # -- knowledge / capability management -----------------------------------------
    def add_fragment(self, fragment: WorkflowFragment) -> None:
        """Add know-how to this device."""

        self.fragment_manager.add_fragment(fragment)

    def add_fragments(self, fragments: Iterable[WorkflowFragment]) -> None:
        self.fragment_manager.add_fragments(fragments)

    def add_service(self, service: ServiceDescription) -> None:
        """Advertise an additional capability."""

        self.service_manager.register(service)

    # -- lifecycle -----------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop this host: drop volatile state, go silent, stay silent.

        All of the host's scheduled activity is cancelled through its
        scheduler scope, and its network registration is removed so in-flight
        messages addressed to it are dropped by the transport on delivery.
        Durable state (the fragment database) survives on the caller's side:
        :meth:`~repro.host.community.Community.restart_host` rebuilds a
        fresh ``Host`` around it with a new database epoch.  Idempotent.
        """

        if self.crashed:
            return
        self.crashed = True
        self.outbox.open = False
        self.scope.deactivate()
        self.network.unregister(self.host_id)

    def restore_durable_state(self, state) -> None:
        """Resume from a replayed :class:`~repro.durability.plane.DurableHostState`.

        Called by :meth:`~repro.host.community.Community.restart_host` on a
        freshly built incarnation (fragments were already re-seeded through
        the constructor).  Order matters: the publication cache first (so
        anything resumed later can already answer replay requests), then
        commitments (invocations release them on abandonment), then
        in-flight invocations, then the initiator-side workspaces (which
        resume construction from their last durable phase and may auction
        against the restored schedule).
        """

        self.execution_manager.restore_publications(state.published)
        self.schedule_manager.restore_commitments(state.commitments.values())
        self.execution_manager.restore_invocations(state.invocations.values())
        self.workflow_manager.restore_workspaces(state.workspaces.values())

    # -- message plumbing -------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        """Dispatch an incoming message to the component that owns it."""

        if self.crashed:
            return
        self.messages_received += 1
        if isinstance(message, FragmentQuery):
            self._send(self.fragment_manager.handle_query(message))
        elif isinstance(message, FragmentResponse):
            self.workflow_manager.handle_fragment_response(message)
        elif isinstance(message, CapabilityQuery):
            self._send(
                CapabilityResponse(
                    sender=self.host_id,
                    recipient=message.sender,
                    offered=self.service_manager.matching(message.service_types),
                    workflow_id=message.workflow_id,
                )
            )
        elif isinstance(message, CapabilityResponse):
            self.workflow_manager.handle_capability_response(message)
        elif isinstance(message, CallForBidsBatch):
            self._send(self.participation_manager.handle_call_for_bids_batch(message))
        elif isinstance(message, BidBatch):
            self.auction_manager.handle_bid_batch(message)
        elif isinstance(message, AwardBatch):
            outcomes = self.participation_manager.handle_award_batch(message)
            accepted: list[str] = []
            for entry, outcome in zip(message.awards, outcomes):
                if isinstance(outcome, AwardRejected):
                    self._send(outcome)
                else:
                    accepted.append(entry.task.name)
            if self.config.fault_injection and accepted:
                self._send(
                    AwardAck(
                        sender=self.host_id,
                        recipient=message.sender,
                        workflow_id=message.workflow_id,
                        task_names=tuple(accepted),
                    )
                )
        elif isinstance(message, AwardRejected):
            self.auction_manager.handle_award_rejected(message)
        elif isinstance(message, AwardAck):
            self.auction_manager.handle_award_ack(message)
        elif isinstance(message, LabelBatch):
            self.execution_manager.handle_label_batch(message)
        elif isinstance(message, LabelReplayRequest):
            self.execution_manager.handle_replay_request(message)
        elif isinstance(message, ProgressQuery):
            self.execution_manager.handle_progress_query(message)
        elif isinstance(message, WorkflowProgressReport):
            self.workflow_manager.handle_progress_report(message)
        # Unknown message kinds are ignored: forward compatibility with
        # extensions that add new protocol messages.

    # -- introspection ---------------------------------------------------------------------
    @property
    def service_types(self) -> frozenset[str]:
        return self.service_manager.service_types

    @property
    def fragment_count(self) -> int:
        return self.fragment_manager.fragment_count

    def commitments(self):
        """The host's current schedule of commitments."""

        return self.schedule_manager.commitments

    def __repr__(self) -> str:
        return (
            f"Host({self.host_id!r}, fragments={self.fragment_count}, "
            f"services={len(self.service_types)})"
        )
