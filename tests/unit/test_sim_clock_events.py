"""Unit tests for the simulation kernel: clocks and the event scheduler."""

import weakref

import pytest

from repro.sim.clock import SimulatedClock, WallClock
from repro.sim.events import EventScheduler, ScopedScheduler


class TestSimulatedClock:
    def test_starts_at_origin_and_advances(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        assert clock.advance(5.0) == 5.0
        assert clock.now() == 5.0

    def test_advance_to_absolute_time(self):
        clock = SimulatedClock(start=10.0)
        clock.advance_to(12.5)
        assert clock.now() == 12.5

    def test_rejects_backwards_movement(self):
        clock = SimulatedClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_wall_clock_moves_forward(self):
        clock = WallClock()
        first = clock.now()
        second = clock.now()
        assert second >= first >= 0.0


class TestEventScheduler:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired: list[str] = []
        scheduler.schedule_in(2.0, lambda: fired.append("late"))
        scheduler.schedule_in(1.0, lambda: fired.append("early"))
        scheduler.run()
        assert fired == ["early", "late"]
        assert scheduler.clock.now() == 2.0

    def test_fifo_within_same_timestamp(self):
        scheduler = EventScheduler()
        fired: list[int] = []
        for index in range(5):
            scheduler.schedule_now(lambda i=index: fired.append(i))
        scheduler.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancellation(self):
        scheduler = EventScheduler()
        fired: list[str] = []
        handle = scheduler.schedule_in(1.0, lambda: fired.append("no"))
        scheduler.schedule_in(2.0, lambda: fired.append("yes"))
        handle.cancel()
        assert handle.cancelled
        scheduler.run()
        assert fired == ["yes"]

    def test_run_until_deadline(self):
        scheduler = EventScheduler()
        fired: list[float] = []
        for t in (1.0, 2.0, 3.0):
            scheduler.schedule_in(t, lambda t=t: fired.append(t))
        scheduler.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert scheduler.clock.now() == 2.0
        scheduler.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_events_can_schedule_events(self):
        scheduler = EventScheduler()
        fired: list[str] = []

        def outer() -> None:
            fired.append("outer")
            scheduler.schedule_in(1.0, lambda: fired.append("inner"))

        scheduler.schedule_in(1.0, outer)
        scheduler.run()
        assert fired == ["outer", "inner"]
        assert scheduler.clock.now() == 2.0

    def test_cannot_schedule_in_the_past(self):
        scheduler = EventScheduler()
        scheduler.clock.advance(5.0)
        with pytest.raises(ValueError):
            scheduler.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            scheduler.schedule_in(-1.0, lambda: None)

    def test_step_and_pending(self):
        scheduler = EventScheduler()
        scheduler.schedule_in(1.0, lambda: None)
        assert scheduler.pending == 1
        assert scheduler.step() is True
        assert scheduler.step() is False
        assert scheduler.processed_events == 1

    def test_runaway_protection(self):
        scheduler = EventScheduler(max_events=10)

        def reschedule() -> None:
            scheduler.schedule_in(0.0, reschedule)

        scheduler.schedule_now(reschedule)
        with pytest.raises(RuntimeError):
            scheduler.run()

    def test_run_for(self):
        scheduler = EventScheduler()
        scheduler.schedule_in(5.0, lambda: None)
        scheduler.run_for(3.0)
        assert scheduler.clock.now() == 3.0

    def test_clear_drops_pending_events_and_their_actions(self):
        scheduler = EventScheduler()
        owner = Owner()
        released = weakref.ref(owner)
        handle = scheduler.schedule_in(1.0, owner.act)
        owner = None
        scheduler.clear()
        assert released() is None
        assert handle.cancelled
        assert scheduler.pending == 0
        assert scheduler.step() is False


class Owner:
    """Stands for a component whose timer action is a bound method."""

    def __init__(self) -> None:
        self.calls = 0

    def act(self) -> None:
        self.calls += 1


class TestScopedScheduler:
    def test_fires_through_the_shared_scheduler(self):
        scheduler = EventScheduler()
        scope = ScopedScheduler(scheduler)
        fired: list[str] = []
        scope.schedule_in(2.0, lambda: fired.append("scoped"))
        scheduler.schedule_in(1.0, lambda: fired.append("shared"))
        assert scope.pending == 1
        scheduler.run()
        assert fired == ["shared", "scoped"]
        assert scope.pending == 0

    def test_cancelled_timer_releases_its_action_once_passed(self):
        scheduler = EventScheduler()
        scope = ScopedScheduler(scheduler)
        owner = Owner()
        released = weakref.ref(owner)
        handle = scope.schedule_in(5.0, owner.act)
        owner = None
        handle.cancel()
        scheduler.run()
        # Neither the kept handle nor the scope holds what the action
        # captured.
        assert released() is None
        assert handle.cancelled
        assert scope.pending == 0

    def test_fired_timer_releases_its_action(self):
        scheduler = EventScheduler()
        scope = ScopedScheduler(scheduler)
        owner = Owner()
        released = weakref.ref(owner)
        handle = scope.schedule_in(1.0, owner.act)
        owner = None
        scheduler.run()
        assert released() is None
        assert not handle.cancelled
        assert scope.pending == 0

    def test_deactivate_cancels_pending_timers_and_refuses_new_ones(self):
        scheduler = EventScheduler()
        scope = ScopedScheduler(scheduler)
        owner = Owner()
        released = weakref.ref(owner)
        fired = scope.schedule_in(1.0, owner.act)
        pending = scope.schedule_in(10.0, owner.act)
        scheduler.run(until=5.0)
        scope.deactivate()
        refused = scope.schedule_in(1.0, owner.act)
        assert (fired.cancelled, pending.cancelled, refused.cancelled) == (False, True, True)
        calls, owner = owner.calls, None
        assert released() is None
        scheduler.run()
        assert calls == 1
        assert scope.pending == 0

