"""A small discrete event simulation kernel.

The evaluation of the paper runs all hosts inside a single JVM communicating
through a simulated network.  We follow the same approach: hosts are plain
Python objects, and everything that takes time — message transmission over
the (simulated) radio, service execution, travel between locations — is
scheduled as an event on a shared :class:`EventScheduler`.

The kernel is deliberately minimal: a priority queue of timestamped
callbacks with deterministic tie-breaking (FIFO within the same timestamp),
plus helpers to run until quiescence or until a deadline.  Determinism
matters because the experiments must be reproducible; given the same seed
and inputs, a run always produces the same event order.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Callable

from .clock import SimulatedClock


@dataclass(order=True)
class _ScheduledEvent:
    """Internal heap entry: ordered by (time, sequence number).

    ``action`` is dropped (set to ``None``) once the event fires or is
    cancelled, so a handle kept after that point no longer holds what the
    action captured (typically the component that armed it).
    """

    time: float
    sequence: int
    action: Callable[[], None] | None = field(compare=False)
    description: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True
        self.action = None


class EventHandle:
    """Handle returned by :meth:`EventScheduler.schedule` to allow cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""

        self._event.cancel()

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"EventHandle(time={self._event.time}, description={self._event.description!r})"


class EventScheduler:
    """A deterministic discrete event scheduler.

    Parameters
    ----------
    clock:
        The simulated clock to advance.  A fresh clock is created when none
        is given.
    max_events:
        Safety valve against runaway simulations: :meth:`run` raises
        ``RuntimeError`` after this many events have been processed.
    """

    def __init__(
        self,
        clock: SimulatedClock | None = None,
        max_events: int = 10_000_000,
    ) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        self._queue: list[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._max_events = max_events
        self.processed_events = 0

    # -- scheduling ---------------------------------------------------------
    def schedule_at(
        self, timestamp: float, action: Callable[[], None], description: str = ""
    ) -> EventHandle:
        """Schedule ``action`` to run at absolute simulated time ``timestamp``."""

        if timestamp < self.clock.now():
            raise ValueError(
                f"cannot schedule an event in the past ({timestamp} < {self.clock.now()})"
            )
        event = _ScheduledEvent(timestamp, next(self._sequence), action, description)
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule_in(
        self, delay: float, action: Callable[[], None], description: str = ""
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""

        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.clock.now() + delay, action, description)

    def schedule_now(self, action: Callable[[], None], description: str = "") -> EventHandle:
        """Schedule ``action`` at the current simulated time (still FIFO ordered)."""

        return self.schedule_at(self.clock.now(), action, description)

    # -- execution ------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events still waiting to fire (including cancelled ones)."""

        return sum(1 for event in self._queue if not event.cancelled)

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` when the queue is empty."""

        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Process a single event; returns ``False`` when nothing is pending."""

        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            self.processed_events += 1
            action = event.action
            event.action = None
            action()
            return True
        return False

    def clear(self) -> None:
        """Discard every pending event, dropping its action.

        The queue is the only path from the scheduler to the components
        whose timers and deliveries are pending, so after this call nothing
        the scheduler holds refers back to them.  A community clears its
        scheduler when it is freed.
        """

        for event in self._queue:
            event.cancel()
        self._queue.clear()

    def run(self, until: float | None = None) -> float:
        """Run events until the queue drains or simulated time passes ``until``.

        Returns the simulated time at which the run stopped.
        """

        start_count = self.processed_events
        while True:
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                break
            if self.processed_events - start_count >= self._max_events:
                raise RuntimeError(
                    f"event scheduler exceeded {self._max_events} events; "
                    "likely an infinite messaging loop"
                )
            self.step()
        return self.clock.now()

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` seconds of simulated time."""

        return self.run(until=self.clock.now() + duration)

    def __repr__(self) -> str:
        return (
            f"EventScheduler(now={self.clock.now():.3f}, pending={self.pending}, "
            f"processed={self.processed_events})"
        )


class ScopedScheduler:
    """A component-scoped view of an :class:`EventScheduler`.

    Hosts hand one scope to each of their timer-owning components so that a
    crash (or removal from the community) can cancel *every* outstanding
    timer of that host in one call — auction deadlines, execution
    start-windows, retry timers — instead of leaving them to fire against a
    detached object.  The wrapper is duck-type compatible with the scheduler
    API the components use (``schedule_at`` / ``schedule_in`` /
    ``schedule_now`` / ``clock``) and adds nothing to the event stream: it
    hands the action to the scheduler unwrapped.  It tracks its events
    weakly, keyed by sequence number: the scheduler's queue keeps a pending
    event alive, and an event that fired or was cancelled leaves the
    tracking dict once nothing else (such as a handle a component kept)
    refers to it.  The scope is therefore never part of a reference cycle
    through its own events.
    """

    def __init__(self, scheduler: EventScheduler) -> None:
        self._scheduler = scheduler
        self._live: weakref.WeakValueDictionary[int, _ScheduledEvent] = (
            weakref.WeakValueDictionary()
        )
        self.active = True

    @property
    def clock(self) -> SimulatedClock:
        return self._scheduler.clock

    def schedule_at(
        self, timestamp: float, action: Callable[[], None], description: str = ""
    ) -> EventHandle:
        if not self.active:
            # A deactivated scope schedules nothing: return an already-
            # cancelled handle so callers need no special case.
            event = _ScheduledEvent(timestamp, -1, None, description, cancelled=True)
            return EventHandle(event)
        handle = self._scheduler.schedule_at(timestamp, action, description)
        event = handle._event
        self._live[event.sequence] = event
        return handle

    def schedule_in(
        self, delay: float, action: Callable[[], None], description: str = ""
    ) -> EventHandle:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.clock.now() + delay, action, description)

    def schedule_now(
        self, action: Callable[[], None], description: str = ""
    ) -> EventHandle:
        return self.schedule_at(self.clock.now(), action, description)

    def cancel_all(self) -> None:
        """Cancel every timer still pending in this scope."""

        for event in list(self._live.values()):
            if event.action is not None:
                event.cancel()
        self._live.clear()

    def deactivate(self) -> None:
        """Cancel everything and refuse all future scheduling (host died)."""

        self.active = False
        self.cancel_all()

    @property
    def pending(self) -> int:
        """Timers of this scope that have neither fired nor been cancelled."""

        return sum(1 for event in list(self._live.values()) if event.action is not None)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ScopedScheduler(active={self.active}, pending={self.pending})"
