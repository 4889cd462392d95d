"""Unit tests for the mobility substrate: geometry, locations, movement."""

import pytest

from repro.mobility.geometry import ORIGIN, Point, Rectangle, square_site
from repro.mobility.locations import (
    Location,
    LocationDirectory,
    TravelModel,
    grid_locations,
)
from repro.mobility.models import (
    RandomWaypointMobility,
    StaticMobility,
    WaypointMobility,
)
from repro.sim.randomness import rng_from_seed


class TestGeometry:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0
        assert ORIGIN.distance_to(ORIGIN) == 0.0

    def test_midpoint_and_translate(self):
        assert Point(0, 0).midpoint(Point(2, 2)) == Point(1, 1)
        assert Point(1, 1).translated(2, -1) == Point(3, 0)

    def test_moved_towards_clamps_at_target(self):
        start, target = Point(0, 0), Point(10, 0)
        assert start.moved_towards(target, 4) == Point(4, 0)
        assert start.moved_towards(target, 100) == target
        assert target.moved_towards(target, 5) == target

    def test_rectangle(self):
        area = Rectangle(0, 0, 10, 20)
        assert area.width == 10 and area.height == 20
        assert area.center == Point(5, 10)
        assert area.contains(Point(5, 5))
        assert not area.contains(Point(-1, 5))
        assert area.clamp(Point(-5, 25)) == Point(0, 20)
        with pytest.raises(ValueError):
            Rectangle(10, 0, 0, 0)

    def test_square_site_and_random_point(self):
        area = square_site(100)
        point = area.random_point(rng_from_seed(1))
        assert area.contains(point)
        with pytest.raises(ValueError):
            square_site(0)


class TestLocations:
    def test_directory_lookup(self):
        directory = LocationDirectory([Location("kitchen", Point(0, 0))])
        directory.add_point("yard", 50, 50)
        assert "kitchen" in directory and "yard" in directory
        assert directory.position_of("yard") == Point(50, 50)
        assert directory.position_of("nowhere") is None
        assert len(directory) == 2
        assert [loc.name for loc in directory] == ["kitchen", "yard"]

    def test_grid_locations(self):
        directory = grid_locations(["a", "b", "c", "d", "e"], spacing=10, columns=2)
        assert directory.position_of("a") == Point(0, 0)
        assert directory.position_of("b") == Point(10, 0)
        assert directory.position_of("c") == Point(0, 10)


class TestTravelModel:
    def test_travel_seconds(self):
        model = TravelModel(speed=2.0)
        assert model.travel_seconds(Point(0, 0), Point(20, 0)) == 10.0
        assert model.travel_seconds(Point(0, 0), Point(0, 0)) == 0.0
        assert model.travel_seconds(None, Point(0, 0)) == model.unknown_location_penalty

    def test_fixed_overhead_applies_to_nonzero_trips(self):
        model = TravelModel(speed=1.0, fixed_overhead=30.0)
        assert model.travel_seconds(Point(0, 0), Point(10, 0)) == 40.0
        assert model.travel_seconds(Point(0, 0), Point(0, 0)) == 0.0

    def test_travel_between_named_locations(self):
        directory = LocationDirectory(
            [Location("a", Point(0, 0)), Location("b", Point(100, 0))]
        )
        model = TravelModel(speed=10.0)
        assert model.travel_between(directory, "a", "b") == 10.0
        assert model.travel_between(directory, "a", None) == 0.0
        assert model.travel_between(directory, "a", "unknown") == model.unknown_location_penalty

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TravelModel(speed=0)
        with pytest.raises(ValueError):
            TravelModel(fixed_overhead=-1)


class TestMobilityModels:
    def test_static(self):
        model = StaticMobility(Point(3, 4))
        assert model.position_at(0) == Point(3, 4)
        assert model.position_at(1e6) == Point(3, 4)

    def test_waypoint_progression(self):
        model = WaypointMobility([Point(0, 0), Point(10, 0)], speed=1.0)
        assert model.position_at(0) == Point(0, 0)
        assert model.position_at(5) == Point(5, 0)
        assert model.position_at(100) == Point(10, 0)
        assert model.final_position == Point(10, 0)

    def test_waypoint_pause(self):
        model = WaypointMobility([Point(0, 0), Point(10, 0)], speed=1.0, pause=5.0)
        assert model.position_at(3) == Point(0, 0)  # still pausing
        assert model.position_at(7) == Point(2, 0)

    def test_waypoint_validation(self):
        with pytest.raises(ValueError):
            WaypointMobility([])
        with pytest.raises(ValueError):
            WaypointMobility([Point(0, 0)], speed=0)

    def test_random_waypoint_is_deterministic_and_bounded(self):
        area = square_site(100)
        first = RandomWaypointMobility(area, seed=9)
        second = RandomWaypointMobility(area, seed=9)
        for t in (0.0, 10.0, 100.0, 500.0):
            assert first.position_at(t) == second.position_at(t)
            assert area.contains(first.position_at(t))

    def test_random_waypoint_queries_out_of_order(self):
        model = RandomWaypointMobility(square_site(50), seed=4)
        late = model.position_at(300.0)
        early = model.position_at(10.0)
        assert model.position_at(300.0) == late
        assert model.position_at(10.0) == early

    def test_random_waypoint_validation(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility(square_site(10), seed=1, min_speed=0)
        with pytest.raises(ValueError):
            RandomWaypointMobility(square_site(10), seed=1, pause=-1)


class TestMotionReporting:
    """``motion_at``: raw leg rows, bit-exactly replayable via moved_towards."""

    def replay(self, row, t):
        valid_until, start, origin, destination, speed = row
        return origin.moved_towards(destination, (t - start) * speed)

    def test_static_motion_is_one_eternal_rest(self):
        import math

        model = StaticMobility(Point(3, 4))
        row = model.motion_at(12.0)
        assert row == (math.inf, 0.0, Point(3, 4), Point(3, 4), 0.0)
        assert self.replay(row, 1e9) == Point(3, 4)

    def test_waypoint_motion_replays_bit_identically(self):
        model = WaypointMobility(
            [Point(0, 0), Point(10, 7), Point(-3, 2)], speed=1.7, pause=4.0
        )
        reference = WaypointMobility(
            [Point(0, 0), Point(10, 7), Point(-3, 2)], speed=1.7, pause=4.0
        )
        t = 0.0
        for delta in (0.0, 0.9, 3.0, 1.4, 6.2, 2.8, 9.9, 30.0, 100.0):
            t += delta
            valid_until, *_ = row = model.motion_at(t)
            # The row replays exactly at the fetch instant...
            assert self.replay(row, t) == reference.position_at(t)
            # ...and at every probe strictly before its validity boundary.
            for probe in (t, t + 0.25, t + 1.5):
                if probe < valid_until:
                    assert self.replay(row, probe) == reference.position_at(probe)

    def test_waypoint_motion_final_rest_and_pauses(self):
        import math

        model = WaypointMobility([Point(0, 0), Point(10, 0)], speed=2.0, pause=5.0)
        # Pausing at the first waypoint until the leg starts at t=5.
        assert model.motion_at(2.0) == (5.0, 0.0, Point(0, 0), Point(0, 0), 0.0)
        # Mid-leg: the raw leg parameters.
        assert model.motion_at(6.0) == (10.0, 5.0, Point(0, 0), Point(10, 0), 2.0)
        # Done: an eternal rest at the final waypoint.
        assert model.motion_at(50.0) == (
            math.inf, 0.0, Point(10, 0), Point(10, 0), 0.0
        )

    def test_single_waypoint_motion_is_forever(self):
        import math

        model = WaypointMobility([Point(5, 5)])
        valid_until, _, origin, destination, speed = model.motion_at(3.0)
        assert (valid_until, origin, destination, speed) == (
            math.inf, Point(5, 5), Point(5, 5), 0.0
        )

    def test_random_waypoint_motion_replays_bit_identically(self):
        model = RandomWaypointMobility(square_site(120), seed=29, pause=2.5)
        reference = RandomWaypointMobility(square_site(120), seed=29, pause=2.5)
        t = 0.0
        for delta in (0.0, 1.3, 0.0, 4.4, 11.0, 2.2, 37.5, 8.8):
            t += delta
            valid_until, *_ = row = model.motion_at(t)
            assert valid_until > t or t == 0.0
            assert self.replay(row, t) == reference.position_at(t)
            for probe in (t + 0.4, t + 2.9):
                if probe < valid_until:
                    assert self.replay(row, probe) == reference.position_at(probe)
