"""The abstract communications layer.

One of the two architectural design principles of the paper (Section 4.2)
is to "isolate and hide the highly variable details of the transports,
protocols, and caching schemes used during communication by providing an
abstract communications layer", and to pass even local component
interactions through the same intermediary so local and remote components
are accessed uniformly.

:class:`CommunicationsLayer` is that abstraction.  Hosts register a message
handler under their host id; senders call :meth:`send` (unicast) or
:meth:`broadcast` (every currently reachable host).  Concrete subclasses
decide what "reachable" means and how long delivery takes:

* :class:`~repro.net.simnet.SimulatedNetwork` — everyone reachable,
  configurable constant latency (the paper's single-JVM simulation).
* :class:`~repro.net.adhoc.AdHocWirelessNetwork` — reachability derived
  from radio range and host positions, latency derived from an 802.11g-like
  bandwidth model, optionally multi-hop via AODV-style routing.

Delivery is asynchronous: the layer schedules the recipient's handler on the
shared event scheduler, so all middleware code sees the same event-driven
world regardless of the transport in use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from ..core.errors import CommunicationError, HostUnreachableError
from ..sim.events import EventScheduler
from .messages import Message

MessageHandler = Callable[[Message], None]


@dataclass
class TransportStatistics:
    """Counters describing the traffic carried by a communications layer.

    ``by_kind`` counts messages and ``bytes_by_kind`` the estimated wire
    bytes per message kind, so experiments can attribute traffic to the
    protocol phase that caused it (e.g. how many bytes of fragment transfer
    the shared knowledge plane saved on a repeat workflow).
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    dropped_by_kind: dict[str, int] = field(default_factory=dict)

    def record_sent(self, message: Message) -> None:
        size = message.size_bytes()
        kind = message.kind
        self.messages_sent += 1
        self.bytes_sent += size
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size

    def record_delivered(self) -> None:
        self.messages_delivered += 1

    def record_dropped(self, message: Message | None = None) -> None:
        self.messages_dropped += 1
        if message is not None:
            kind = message.kind
            self.dropped_by_kind[kind] = self.dropped_by_kind.get(kind, 0) + 1

    def kind_count(self, *kinds: str) -> int:
        """Total messages sent across the named kinds."""

        return sum(self.by_kind.get(kind, 0) for kind in kinds)

    def kind_bytes(self, *kinds: str) -> int:
        """Total bytes sent across the named kinds."""

        return sum(self.bytes_by_kind.get(kind, 0) for kind in kinds)

    def as_dict(self) -> dict[str, object]:
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "by_kind": dict(self.by_kind),
            "bytes_by_kind": dict(self.bytes_by_kind),
            "dropped_by_kind": dict(self.dropped_by_kind),
        }


class CommunicationsLayer(ABC):
    """Base class for all transports.

    Subclasses implement :meth:`latency_for` and :meth:`is_reachable`; the
    base class handles registration, statistics, and scheduling delivery on
    the event scheduler.
    """

    def __init__(self, scheduler: EventScheduler) -> None:
        self.scheduler = scheduler
        self._handlers: dict[str, MessageHandler] = {}
        self.statistics = TransportStatistics()
        #: Optional :class:`~repro.net.faults.FaultPlane` consulted once per
        #: unicast send; ``None`` (the default) is the perfectly reliable
        #: medium and is byte-identical to the pre-fault-plane transport.
        self.fault_plane = None

    def install_fault_plane(self, plane) -> None:
        """Attach a fault-injection plane to every subsequent :meth:`send`."""

        self.fault_plane = plane

    # -- membership ---------------------------------------------------------
    def register(self, host_id: str, handler: MessageHandler) -> None:
        """Attach a host's message handler to the network."""

        if host_id in self._handlers:
            raise CommunicationError(f"host {host_id!r} is already registered")
        self._handlers[host_id] = handler

    def unregister(self, host_id: str) -> None:
        """Detach a host (e.g. it left the community)."""

        self._handlers.pop(host_id, None)

    def detach_all(self) -> None:
        """Drop every registration and anything else that refers back here.

        A registered handler is a bound method of a host that holds this
        layer, so the handler table is a reference cycle while hosts are
        attached.  A community detaches its network when it is freed, and
        the layer delivers nothing afterwards.
        """

        self._handlers.clear()

    @property
    def host_ids(self) -> frozenset[str]:
        """All hosts currently attached to the network."""

        return frozenset(self._handlers)

    def is_registered(self, host_id: str) -> bool:
        return host_id in self._handlers

    # -- reachability & latency (transport specific) -----------------------------
    @abstractmethod
    def is_reachable(self, sender: str, recipient: str) -> bool:
        """True when a message from ``sender`` can currently reach ``recipient``."""

    @abstractmethod
    def latency_for(self, message: Message) -> float:
        """Seconds the message spends in flight."""

    def _link(self, sender: str, recipient: str) -> object:
        """How ``sender`` reaches ``recipient`` now, or ``None`` if it cannot:
        :meth:`send` decides it once, and only once the fault plane has let
        the message through derives the latency (and any route) from it."""

        return self.is_reachable(sender, recipient) or None

    def _latency(self, message: Message, link: object) -> float:
        return self.latency_for(message)

    def reachable_from(self, sender: str) -> frozenset[str]:
        """All hosts reachable from ``sender`` (excluding itself)."""

        return frozenset(
            host
            for host in self._handlers
            if host != sender and self.is_reachable(sender, host)
        )

    # -- sending -------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Deliver ``message`` to its recipient asynchronously.

        Raises :class:`~repro.core.errors.HostUnreachableError` when the
        recipient is unknown or outside communication range; callers that
        prefer best-effort semantics can use :meth:`try_send`.
        """

        self.statistics.record_sent(message)
        if message.recipient not in self._handlers:
            self.statistics.record_dropped(message)
            raise HostUnreachableError(
                f"host {message.recipient!r} is not attached to the network"
            )
        link = self._link(message.sender, message.recipient)
        if link is None:
            self.statistics.record_dropped(message)
            raise HostUnreachableError(
                f"host {message.recipient!r} is not reachable from {message.sender!r}"
            )
        extra_delays: tuple[float, ...] = (0.0,)
        if self.fault_plane is not None:
            decision = self.fault_plane.intercept(message, self.scheduler.clock.now())
            if not decision.deliver:
                # Injected loss is silent — like the radio, not like an
                # unreachable host — so protocols must survive it on their
                # own (retries, timeouts, repair).
                self.statistics.record_dropped(message)
                return
            extra_delays = decision.extra_delays
        latency = self._latency(message, link)

        def deliver() -> None:
            # The recipient may have left the network (or crashed) while the
            # message was in flight; in that case the message is silently
            # dropped, matching the behaviour of a real wireless medium.  The
            # handler is looked up at delivery time so a host that crashed
            # and restarted mid-flight receives through its *current*
            # incarnation, never the dead one's captured handler.
            handler = self._handlers.get(message.recipient)
            if handler is not None:
                self.statistics.record_delivered()
                handler(message)
            else:
                self.statistics.record_dropped(message)

        for extra in extra_delays:
            self.scheduler.schedule_in(
                latency + extra, deliver, description=repr(message)
            )

    def try_send(self, message: Message) -> bool:
        """Best-effort :meth:`send`; returns ``False`` instead of raising."""

        try:
            self.send(message)
        except CommunicationError:
            return False
        return True

    def broadcast(
        self, sender: str, make_message: Callable[[str], Message]
    ) -> list[str]:
        """Send a message to every host reachable from ``sender``.

        ``make_message`` is called once per recipient so each copy carries
        the correct envelope.  Returns the list of recipients addressed.
        """

        recipients = sorted(self.reachable_from(sender))
        for recipient in recipients:
            self.send(make_message(recipient))
        return recipients


class Outbox:
    """One host's way onto a communications layer: best-effort sends.

    A host hands :meth:`send` to its managers in place of a bound method of
    its own, so the managers refer to the network and this flag, not back
    to the host that owns them.  Closing the outbox (the host crashed or
    left) silences every sender at once.
    """

    __slots__ = ("network", "open")

    def __init__(self, network: CommunicationsLayer) -> None:
        self.network = network
        self.open = True

    def send(self, message: Message) -> None:
        """Hand ``message`` to the network while open; drop it otherwise."""

        if self.open:
            self.network.try_send(message)
