"""Mobility models for hosts in the ad hoc community.

The open workflow paradigm targets *physically mobile* participants; hosts
move around a site, and connectivity (and therefore which know-how and
capabilities are available) changes with their positions.  This module
provides the mobility models used by the scenarios and the ad hoc network
substrate:

* :class:`StaticMobility` — the host stays put (the paper's experiments use
  stationary hosts with verified connectivity, so this is the default for
  reproducing Figures 4-6).
* :class:`WaypointMobility` — the host visits a fixed list of waypoints at a
  constant speed (useful for scripted scenarios such as "the chef leaves the
  office at 10:00").
* :class:`RandomWaypointMobility` — the classic MANET random waypoint model:
  pick a uniform destination within the site, travel to it at a random
  speed, pause, repeat.

All models answer the single question ``position_at(time)`` so they can be
evaluated lazily by the network and scheduling layers without a background
ticker, and report their current trajectory leg through ``motion_at`` (see
:class:`MobilityModel`).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Protocol, Sequence

from .geometry import Point, Rectangle


class MobilityModel(Protocol):
    """Anything that can report a host's position at a simulated time.

    ``position_at(time)`` is the whole required contract.  A model built
    from piecewise-linear trajectories may also implement
    ``motion_at(time) -> (valid_until, start, origin, destination,
    speed)``: the raw parameters of the current trajectory leg, chosen so
    that for every ``t`` in ``[time, valid_until)`` the scalar
    ``position_at(t)`` is *bit-identical* to replaying
    ``origin.moved_towards(destination, (t - start) * speed)`` (rest
    segments are encoded as ``origin == destination`` with zero speed).

    Everything else the network substrate needs is derived from that one
    report.  The vectorized geometry kernels (:mod:`repro.net.kernels`)
    load the rows into contiguous arrays and evaluate whole populations in
    one NumPy call.  Event-driven link maintenance skips re-evaluating a
    host until it may move again: ``time`` itself while it moves (non-zero
    speed before ``valid_until``), ``valid_until`` otherwise (``inf`` once
    at rest for good).  Stability horizons bound how fast links can change
    from the legs' speeds.  A model without ``motion_at`` is evaluated host
    by host through ``position_at``, re-evaluated every tick, and never
    gets a stability horizon.
    """

    def position_at(self, time: float) -> Point:
        """The host's position at simulated time ``time`` (seconds)."""
        ...


@dataclass(frozen=True)
class StaticMobility:
    """A host that never moves."""

    position: Point

    def position_at(self, time: float) -> Point:
        return self.position

    def motion_at(self, time: float) -> tuple[float, float, Point, Point, float]:
        return math.inf, 0.0, self.position, self.position, 0.0


class WaypointMobility:
    """Deterministic movement through a scripted list of waypoints.

    The host starts at the first waypoint at time 0 and moves from waypoint
    to waypoint at ``speed`` metres per second, pausing ``pause`` seconds at
    each stop.  After the final waypoint it stays there.
    """

    def __init__(
        self,
        waypoints: Sequence[Point],
        speed: float = 1.4,
        pause: float = 0.0,
    ) -> None:
        if not waypoints:
            raise ValueError("at least one waypoint is required")
        if speed <= 0:
            raise ValueError("speed must be positive")
        if pause < 0:
            raise ValueError("pause must be non-negative")
        self._waypoints = list(waypoints)
        self._speed = speed
        self._pause = pause
        # Precompute the (start_time, end_time, origin, destination) legs.
        self._legs: list[tuple[float, float, Point, Point]] = []
        cursor = 0.0
        for origin, destination in zip(self._waypoints, self._waypoints[1:]):
            cursor += self._pause
            duration = origin.distance_to(destination) / self._speed
            self._legs.append((cursor, cursor + duration, origin, destination))
            cursor += duration
        self._leg_starts = [leg[0] for leg in self._legs]
        # Single-slot (time -> position) memo: the network snapshots every
        # host once per simulated instant, and the scheduling layer probes
        # the same instant repeatedly, so the last answer is almost always
        # the next one too.
        self._memo: tuple[float, Point] | None = None

    def position_at(self, time: float) -> Point:
        memo = self._memo
        if memo is not None and memo[0] == time:
            return memo[1]
        position = self._position_at(time)
        self._memo = (time, position)
        return position

    def _position_at(self, time: float) -> Point:
        if time <= 0 or not self._legs:
            return self._waypoints[0]
        index = bisect_right(self._leg_starts, time) - 1
        if index < 0:
            return self._waypoints[0]
        start, end, origin, destination = self._legs[index]
        if time < end:
            travelled = (time - start) * self._speed
            return origin.moved_towards(destination, travelled)
        # Past the leg's end: pausing at (or done at) its destination, which
        # is also the origin of the next leg.
        return destination

    def motion_at(self, time: float) -> tuple[float, float, Point, Point, float]:
        """The raw current leg, exactly replayable via ``moved_towards``
        (see :class:`MobilityModel`): mid-leg the travelling segment, before
        the first leg or while pausing a rest at the waypoint."""

        if not self._legs:
            return math.inf, 0.0, self._waypoints[0], self._waypoints[0], 0.0
        if time <= 0 or time < self._legs[0][0]:
            first = self._waypoints[0]
            return self._legs[0][0], 0.0, first, first, 0.0
        index = bisect_right(self._leg_starts, time) - 1
        start, end, origin, destination = self._legs[index]
        if time < end:
            return end, start, origin, destination, self._speed
        if index + 1 < len(self._legs):
            return self._legs[index + 1][0], 0.0, destination, destination, 0.0
        return math.inf, 0.0, destination, destination, 0.0

    @property
    def final_position(self) -> Point:
        return self._waypoints[-1]

    def __repr__(self) -> str:
        return f"WaypointMobility(waypoints={len(self._waypoints)}, speed={self._speed})"


class RandomWaypointMobility:
    """The random waypoint model over a rectangular site.

    Movement is generated lazily but deterministically from the seed: the
    position at any time can be queried in any order and always yields the
    same trajectory.
    """

    def __init__(
        self,
        area: Rectangle,
        seed: int,
        min_speed: float = 0.5,
        max_speed: float = 2.0,
        pause: float = 5.0,
        start: Point | None = None,
    ) -> None:
        if min_speed <= 0 or max_speed < min_speed:
            raise ValueError("speeds must satisfy 0 < min_speed <= max_speed")
        if pause < 0:
            raise ValueError("pause must be non-negative")
        self._area = area
        self._rng = random.Random(seed)
        self._min_speed = min_speed
        self._max_speed = max_speed
        self._pause = pause
        origin = start if start is not None else area.random_point(self._rng)
        # Legs are appended on demand as queries reach further into the future.
        # Each leg: (start_time, end_time, origin, destination, speed) followed
        # by a pause of self._pause seconds at the destination.
        self._legs: list[tuple[float, float, Point, Point, float]] = []
        self._leg_starts: list[float] = []
        self._horizon = 0.0
        self._last_position = origin
        # Single-slot (time -> position) memo, same rationale as
        # :class:`WaypointMobility`: queries cluster on one simulated instant.
        self._memo: tuple[float, Point] | None = None

    def _extend_to(self, time: float) -> None:
        while self._horizon <= time:
            destination = self._area.random_point(self._rng)
            speed = self._rng.uniform(self._min_speed, self._max_speed)
            duration = self._last_position.distance_to(destination) / speed
            start = self._horizon
            end = start + duration
            self._legs.append((start, end, self._last_position, destination, speed))
            self._leg_starts.append(start)
            self._horizon = end + self._pause
            self._last_position = destination

    def position_at(self, time: float) -> Point:
        memo = self._memo
        if memo is not None and memo[0] == time:
            return memo[1]
        position = self._position_at(time)
        self._memo = (time, position)
        return position

    def _position_at(self, time: float) -> Point:
        if time <= 0:
            self._extend_to(0.0)
            return self._legs[0][2]
        self._extend_to(time)
        index = bisect_right(self._leg_starts, time) - 1
        start, end, origin, destination, speed = self._legs[index]
        if time < end:
            return origin.moved_towards(destination, (time - start) * speed)
        # Pausing at the destination until the next leg starts.
        return destination

    def motion_at(self, time: float) -> tuple[float, float, Point, Point, float]:
        """The raw current leg (extending the trajectory as needed), exactly
        replayable via ``moved_towards`` (see :class:`MobilityModel`)."""

        if time <= 0:
            self._extend_to(0.0)
            start, end, origin, destination, speed = self._legs[0]
            return end, start, origin, destination, speed
        self._extend_to(time)
        index = bisect_right(self._leg_starts, time) - 1
        start, end, origin, destination, speed = self._legs[index]
        if time < end:
            return end, start, origin, destination, speed
        # Pausing at the destination; the next leg starts pause later.
        return end + self._pause, 0.0, destination, destination, 0.0

    def __repr__(self) -> str:
        return (
            f"RandomWaypointMobility(area={self._area!r}, "
            f"speed=[{self._min_speed}, {self._max_speed}], pause={self._pause})"
        )
