"""Unit tests for the spatial grid index and the indexed ad hoc network.

Covers the per-tick snapshot (positions evaluated once per instant), the
grid-backed neighbour/connectivity queries, route revalidation keyed by the
topology generation, the loopback-jitter fix, the stability horizon that
lets instants skip the snapshot advance, and the per-pair re-check that
renews it when it runs out.
"""

import pytest

from repro.mobility.geometry import Point
from repro.mobility.models import StaticMobility, WaypointMobility
from repro.net import kernels
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.messages import Message
from repro.net.spatial import SpatialGridIndex
from repro.sim.events import EventScheduler

from ..reference.network import (
    ReferenceNetwork,
    assert_same_geometry,
    in_range_by_position,
)


class TestSpatialGridIndex:
    def test_neighbours_within_radius_inclusive(self):
        grid = SpatialGridIndex(
            {"a": Point(0, 0), "b": Point(100, 0), "c": Point(100.0001, 0)},
            cell_size=100.0,
        )
        assert grid.neighbours_of("a", 100.0) == {"b"}
        assert grid.near(Point(0, 0), 100.0) == {"a", "b"}

    def test_negative_coordinates(self):
        grid = SpatialGridIndex(
            {"a": Point(-250, -250), "b": Point(-260, -250), "c": Point(250, 250)},
            cell_size=50.0,
        )
        assert grid.neighbours_of("a", 50.0) == {"b"}
        assert grid.neighbours_of("c", 50.0) == frozenset()

    def test_radius_larger_than_cell(self):
        grid = SpatialGridIndex(
            {"a": Point(0, 0), "b": Point(90, 0), "c": Point(240, 0)},
            cell_size=30.0,
        )
        assert grid.neighbours_of("a", 100.0) == {"b"}
        assert grid.neighbours_of("a", 250.0) == {"b", "c"}

    def test_connected_components(self):
        grid = SpatialGridIndex(
            {
                "a": Point(0, 0),
                "b": Point(50, 0),
                "c": Point(100, 0),
                "x": Point(500, 500),
                "y": Point(540, 500),
            },
            cell_size=60.0,
        )
        components = {frozenset(c) for c in grid.connected_components(60.0)}
        assert components == {frozenset({"a", "b", "c"}), frozenset({"x", "y"})}
        labels = grid.component_labels(60.0)
        assert labels["a"] == labels["c"] != labels["x"]
        assert not grid.is_single_component(60.0)
        assert grid.is_single_component(1000.0)

    def test_empty_and_singleton(self):
        empty = SpatialGridIndex({}, cell_size=10.0)
        assert empty.near(Point(0, 0), 5.0) == frozenset()
        assert empty.connected_components(5.0) == []
        assert empty.is_single_component(5.0)
        single = SpatialGridIndex({"a": Point(1, 1)}, cell_size=10.0)
        assert single.is_single_component(5.0)
        assert single.neighbours_of("a", 5.0) == frozenset()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpatialGridIndex({}, cell_size=0.0)
        grid = SpatialGridIndex({"a": Point(0, 0)}, cell_size=10.0)
        with pytest.raises(ValueError):
            grid.near(Point(0, 0), -1.0)


def make_network(build=AdHocWirelessNetwork, **kwargs):
    scheduler = EventScheduler()
    network = build(scheduler, radio_range=100.0, **kwargs)
    positions = {"a": Point(0, 0), "b": Point(80, 0), "c": Point(160, 0)}
    for host, position in positions.items():
        network.register(host, lambda m: None)
        network.place_host(host, position)
    return network, scheduler


class TestSnapshotReuse:
    def test_queries_share_one_snapshot_per_instant(self):
        network, scheduler = make_network()
        network.positions()
        network.neighbours_of("a")
        network.is_connected()
        network.is_reachable("a", "c")
        assert network.snapshots_built == 1
        scheduler.clock.advance(1.0)
        network.positions()
        assert network.snapshots_built == 2

    def test_snapshot_invalidated_by_membership_changes(self):
        network, _ = make_network()
        assert network.neighbours_of("b") == {"a", "c"}
        network.register("d", lambda m: None)
        network.place_host("d", Point(80, 60))
        assert network.neighbours_of("b") == {"a", "c", "d"}
        network.unregister("d")
        assert network.neighbours_of("b") == {"a", "c"}

    def test_positions_reuse_snapshot(self):
        network, _ = make_network()
        first = network.positions()
        second = network.positions()
        assert first == second
        assert network.snapshots_built == 1


class TestGridBruteForceParity:
    def test_modes_agree_on_small_topology(self):
        indexed, _ = make_network(multi_hop=True)
        brute, _ = make_network(ReferenceNetwork, multi_hop=True)
        for host in ("a", "b", "c"):
            assert indexed.neighbours_of(host) == brute.neighbours_of(host)
        assert indexed.is_connected() == brute.is_connected()
        assert indexed.is_reachable("a", "c") == brute.is_reachable("a", "c")

    def test_single_hop_connected_means_complete_graph(self):
        network, _ = make_network(multi_hop=False)
        assert not network.is_connected()  # a-c not in direct range
        brute, _ = make_network(ReferenceNetwork, multi_hop=False)
        assert network.is_connected() == brute.is_connected()

    def test_rounded_boundary_distance_is_not_missed(self):
        # Regression: the exact coordinate delta (1.0 + 1e-158) exceeds the
        # radius, putting the hosts in cells *two* apart, but the float
        # distance rounds to exactly 1.0 <= radius, so brute force finds the
        # pair.  The padded cell scan must find it too.
        from repro.mobility.geometry import Point
        from repro.net.spatial import SpatialGridIndex, padded_cell_size

        positions = {"top": Point(0.0, 1.0), "bottom": Point(0.0, -1e-158)}
        assert positions["top"].distance_to(positions["bottom"]) == 1.0
        for cell_size in (1.0, padded_cell_size(1.0), 0.3, 7.0):
            grid = SpatialGridIndex(positions, cell_size=cell_size)
            assert grid.neighbours_of("top", 1.0) == {"bottom"}, cell_size
            assert grid.neighbours_of("bottom", 1.0) == {"top"}, cell_size
        # The padded cell size keeps the scan on the minimal 3x3 block.
        import math
        from repro.net.spatial import _RADIUS_SLOP

        assert math.ceil(1.0 * _RADIUS_SLOP / padded_cell_size(1.0)) == 1


class TestLinkEpochs:
    """Route-cache validity across movement.  The cache is keyed by the
    topology generation, which replaced per-host link epochs; the test ids
    are kept."""

    def test_epoch_stable_while_stationary(self):
        network, scheduler = make_network()
        network.place_host("ghost", Point(40, 0))  # placed, never registered
        first = network.generation_of(("a", "b", "c"))
        scheduler.clock.advance(5.0)
        assert network.generation_of(("a", "b", "c")) == first
        assert network.generation_of(("a", "ghost")) is None  # off the grid

    def test_epoch_bumps_when_links_change(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        network.register("base", lambda m: None)
        network.register("mobile", lambda m: None)
        network.place_host("base", Point(0, 0))
        network.place_host(
            "mobile", WaypointMobility([Point(50, 0), Point(500, 0)], speed=10.0)
        )
        before = network.generation_of(("base",))
        scheduler.clock.advance(40.0)  # mobile walked out of range
        assert network.generation_of(("base",)) == before + 1

    def test_routes_survive_unrelated_movement(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        for host, place in {
            "a": Point(0, 0),
            "b": Point(80, 0),
            "c": Point(160, 0),
            "d": Point(0, 500),
        }.items():
            network.register(host, lambda m: None)
            network.place_host(host, place)
        network.register("walker", lambda m: None)
        # The walker wanders far outside everyone's range the whole time;
        # one mover in five takes the sparse advance, which finds no link
        # changed and keeps the generation.
        network.place_host(
            "walker", WaypointMobility([Point(1000, 1000), Point(2000, 1000)], speed=5.0)
        )
        route = network.router.route("a", "c")
        assert route.hop_count == 2
        assert network.router.discoveries == 1
        generation = network.generation_of(route.hops)
        scheduler.clock.advance(10.0)
        again = network.router.route("a", "c")
        assert again.hops == route.hops
        assert network.router.discoveries == 1  # no rediscovery
        assert network.router.cache_hits == 1
        assert network.hosts_moved == 1
        assert network.generation_of(again.hops) == generation

    def test_routes_break_when_their_links_break(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        network.register("a", lambda m: None)
        network.register("b", lambda m: None)
        network.register("c", lambda m: None)
        network.place_host("a", Point(0, 0))
        network.place_host(
            "b", WaypointMobility([Point(80, 0), Point(80, 500)], speed=10.0)
        )
        network.place_host("c", Point(160, 0))
        assert network.router.route("a", "c").hop_count == 2
        scheduler.clock.advance(45.0)  # b walked away; the a-b-c chain broke
        assert not network.is_reachable("a", "c")


class TestLoopbackJitter:
    def test_self_delivery_is_free_and_draws_no_jitter(self):
        def build():
            scheduler = EventScheduler()
            network = AdHocWirelessNetwork(
                scheduler, radio_range=100.0, jitter=0.01, seed=42
            )
            for host, place in {"a": Point(0, 0), "b": Point(50, 0)}.items():
                network.register(host, lambda m: None)
                network.place_host(host, place)
            return network

        with_loopback = build()
        without_loopback = build()
        assert with_loopback.latency_for(Message(sender="a", recipient="a")) == 0.0
        # The loopback delivery must not have consumed a jitter draw: the
        # next real transmission sees the identical seeded stream.
        first = with_loopback.latency_for(Message(sender="a", recipient="b"))
        second = without_loopback.latency_for(Message(sender="a", recipient="b"))
        assert first == second


class TestIncrementalMaintenance:
    """Event-driven snapshot advances (PR 4): O(moved hosts) per tick."""

    def test_static_population_never_rebuilds_after_first_snapshot(self):
        network, scheduler = make_network()
        network.neighbours_of("a")
        assert network.grid_rebuilds == 1
        for _ in range(5):
            scheduler.clock.advance(1.0)
            network.neighbours_of("a")
        assert network.grid_rebuilds == 1  # advances only
        assert network.snapshots_built == 6
        assert network.hosts_reevaluated == 0  # everyone is provably at rest

    def test_only_the_moving_host_is_reevaluated(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        for host, place in {"a": Point(0, 0), "b": Point(80, 0)}.items():
            network.register(host, lambda m: None)
            network.place_host(host, place)
        network.register("walker", lambda m: None)
        network.place_host(
            "walker", WaypointMobility([Point(0, 300), Point(300, 300)], speed=10.0)
        )
        network.neighbours_of("a")
        scheduler.clock.advance(1.0)
        network.neighbours_of("a")
        assert network.grid_rebuilds == 1
        assert network.hosts_reevaluated == 1  # just the walker
        assert network.hosts_moved == 1

    def test_paused_walker_is_skipped_until_its_leg_starts(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        network.register("anchor", lambda m: None)
        network.place_host("anchor", Point(0, 0))
        network.register("walker", lambda m: None)
        # Pauses 50 s at the first waypoint before walking away.
        network.place_host(
            "walker",
            WaypointMobility([Point(80, 0), Point(400, 0)], speed=10.0, pause=50.0),
        )
        assert network.neighbours_of("anchor") == {"walker"}
        for _ in range(4):
            scheduler.clock.advance(10.0)
            network.neighbours_of("anchor")
        assert network.hosts_reevaluated == 0  # pause end is still ahead
        scheduler.clock.advance(50.0)  # now inside the leg (t=90)
        assert network.neighbours_of("anchor") == frozenset()
        assert network.hosts_reevaluated >= 1

    def test_membership_change_forces_full_rebuild(self):
        network, scheduler = make_network()
        network.neighbours_of("a")
        scheduler.clock.advance(1.0)
        network.register("d", lambda m: None)
        network.place_host("d", Point(80, 60))
        assert network.neighbours_of("b") == {"a", "c", "d"}
        assert network.grid_rebuilds == 2

    def test_epoch_bump_detected_across_incremental_advance(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=100.0)
        network.register("base", lambda m: None)
        network.place_host("base", Point(0, 0))
        network.register("mobile", lambda m: None)
        network.place_host(
            "mobile", WaypointMobility([Point(50, 0), Point(500, 0)], speed=10.0)
        )
        before = network.generation_of(("base",))
        scheduler.clock.advance(40.0)  # mobile walked out of range
        assert network.generation_of(("base",)) == before + 1
        assert network.grid_rebuilds == 1  # advanced, not rebuilt

    def test_grid_move_rehashes_only_on_cell_change(self):
        grid = SpatialGridIndex({"a": Point(0, 0), "b": Point(50, 0)}, cell_size=100.0)
        cells_before = grid.occupied_cells
        grid.move("a", Point(10, 10))  # same cell
        assert grid.occupied_cells == cells_before
        assert grid.position_of("a") == Point(10, 10)
        grid.move("a", Point(250, 250))  # new cell; old one still holds b
        assert grid.near(Point(250, 250), 10.0) == {"a"}
        grid.move("b", Point(260, 260))  # empties and deletes the old cell
        assert grid.occupied_cells == 1
        assert grid.near(Point(255, 255), 20.0) == {"a", "b"}


class _OpaqueDrift:
    """Reports positions only (no ``motion_at``): 5 m/s along x."""

    def position_at(self, time):
        return Point(50.0 + 5.0 * time, 0.0)


VECTORIZED = [
    False,
    pytest.param(
        True,
        marks=pytest.mark.skipif(
            not kernels.numpy_available(), reason="NumPy is not installed"
        ),
    ),
]


@pytest.mark.parametrize("vectorized", VECTORIZED)
class TestStabilityHorizon:
    """Instants inside a sweep's certified horizon skip the snapshot advance
    and must answer exactly as fresh ``position_at`` calls imply."""

    @staticmethod
    def build(placements, ghosts=(), build=AdHocWirelessNetwork, **kwargs):
        scheduler = EventScheduler()
        network = build(scheduler, radio_range=100.0, **kwargs)
        for host, make in placements.items():
            if host not in ghosts:
                network.register(host, lambda m: None)
            network.place_host(host, make())
        return network, scheduler

    def walk(self, placements, vectorized, until, step, ghosts=()):
        """Sample the network and the reference at every ``step`` up to
        ``until``, comparing connectivity first (the sweep that certifies a
        horizon), then every host's position, links, routes and
        reachability."""

        network, clock = self.build(placements, ghosts, vectorized=vectorized)
        reference, reference_clock = self.build(
            placements, ghosts, build=ReferenceNetwork
        )
        for tick in range(int(until / step) + 1):
            if tick:
                clock.clock.advance(step)
                reference_clock.clock.advance(step)
            assert_same_geometry(network, reference, sorted(placements))
        return network

    def test_pair_in_non_adjacent_cells_closing_in(self, vectorized):
        # Three cells apart, closing at 20 m/s: no block pair bounds the
        # horizon, only the cell-edge bound does.  In range from t=10.
        placements = {
            "a": lambda: WaypointMobility([Point(50, 50), Point(1050, 50)], speed=10.0),
            "b": lambda: WaypointMobility([Point(350, 50), Point(-650, 50)], speed=10.0),
        }
        network = self.walk(placements, vectorized, until=25.0, step=0.25)
        assert network.advances_skipped > 0

    def test_waypoint_walker_turning_inside_the_horizon(self, vectorized):
        # Paused at (90, 0) until t=44, then walks out of the base's range
        # at t=45: at rest the speeds give an infinite horizon, so only the
        # pause end bounds it.
        placements = {
            "base": lambda: StaticMobility(Point(0, 0)),
            "walker": lambda: WaypointMobility(
                [Point(50, 0), Point(90, 0), Point(400, 0)], speed=10.0, pause=20.0
            ),
        }
        network = self.walk(placements, vectorized, until=60.0, step=0.5)
        assert network.advances_skipped > 0

    def test_opaque_model_never_skips(self, vectorized):
        placements = {
            "base": lambda: StaticMobility(Point(0, 0)),
            "drift": _OpaqueDrift,
        }
        network = self.walk(placements, vectorized, until=15.0, step=0.25)
        assert network.advances_skipped == 0

    def test_static_fleet_skips_without_reevaluating(self, vectorized):
        network, scheduler = make_network(vectorized=vectorized)
        assert network.is_connected()
        for _ in range(5):
            scheduler.clock.advance(1.0)
            assert network.neighbours_of("b") == {"a", "c"}
            assert network.is_connected()
        assert network.advances_skipped == 5
        assert network.hosts_reevaluated == 0
        assert network.grid_rebuilds == 1

    def test_unregistered_host_answers_from_current_positions(self, vectorized):
        # Ghosts are placed but never registered: outside the grid, so the
        # certificate does not cover them.  "ghost" walks past the static
        # "a" and later the walker "b"; "b" reaches the static "post" at
        # t=50, while the grid may still hold its coordinates from seconds
        # earlier.
        placements = {
            "a": lambda: StaticMobility(Point(50, 50)),
            "b": lambda: WaypointMobility([Point(650, 50), Point(1050, 50)], speed=2.0),
            "ghost": lambda: WaypointMobility(
                [Point(-500, 50), Point(1500, 50)], speed=20.0
            ),
            "post": lambda: StaticMobility(Point(850, 50)),
        }
        network = self.walk(
            placements, vectorized, until=70.0, step=0.25, ghosts=("ghost", "post")
        )
        assert network.advances_skipped > 0

    def test_positions_are_exact_inside_a_horizon(self, vectorized):
        def walker():
            return WaypointMobility([Point(50, 50), Point(90, 50)], speed=1.0)

        placements = {"a": walker, "b": lambda: StaticMobility(Point(250, 250))}
        network, scheduler = self.build(placements, vectorized=vectorized)
        model = walker()
        scheduler.clock.advance(0.5)  # at t=0 the walker reports a 0-s rest
        network.is_connected()  # sweep: certified well beyond t=20
        for step in (1.0, 0.5, 2.5, 7.0, 9.0):
            scheduler.clock.advance(step)
            now = scheduler.clock.now()
            skipped = network.advances_skipped
            assert network.position_of("a") == model.position_at(now)
            assert network.advances_skipped == skipped + 1  # inside the horizon
            assert network.positions() == {
                "a": model.position_at(now),
                "b": Point(250, 250),
            }
            assert network.position_of("a") == model.position_at(now)


@pytest.mark.parametrize("vectorized", VECTORIZED)
class TestPairRecheck:
    """When the horizon runs out at a pair's deadline, only that pair is
    re-checked: a link that held renews the certificate and keeps every
    memo; a link that changed falls back to the advance."""

    @staticmethod
    def build(vectorized, monkeypatch):
        # a-c is static; the walker b passes a at 99 m and leaves its range
        # at t = sqrt(199) ~ 14.1 s.  No host is near a cell edge, so the
        # a-b pair's deadline is the first to pass.
        placements = {
            "a": lambda: StaticMobility(Point(150, 150)),
            "b": lambda: WaypointMobility([Point(150, 249), Point(400, 249)], speed=1.0),
            "c": lambda: StaticMobility(Point(150, 60)),
        }
        network, scheduler = TestStabilityHorizon.build(placements, vectorized=vectorized)
        reference, reference_scheduler = TestStabilityHorizon.build(
            placements, build=ReferenceNetwork
        )
        sweeps = []
        grid_type = kernels.VectorGridIndex if network.vectorized else SpatialGridIndex
        sweep = grid_type.neighbour_sets_and_labels

        def counting(grid, *args, **kwargs):
            sweeps.append(scheduler.clock.now())
            return sweep(grid, *args, **kwargs)

        monkeypatch.setattr(grid_type, "neighbour_sets_and_labels", counting)
        for clock in (scheduler, reference_scheduler):
            clock.clock.advance(0.5)  # at t=0 the walker reports a 0-s rest
        assert network.router.route("b", "c").hops == ("b", "a", "c")
        assert network.is_connected()  # the sweep: a-b is due at ~1.5 s
        assert sweeps == [0.5]
        assert 1.4 < network._snapshot.stable_until < 1.6

        def advance_to(time):
            for clock in (scheduler, reference_scheduler):
                clock.clock.advance(time - clock.clock.now())

        return network, reference, sweeps, advance_to

    def test_an_expiry_that_changes_no_link_keeps_everything(
        self, vectorized, monkeypatch
    ):
        network, reference, sweeps, advance_to = self.build(vectorized, monkeypatch)
        snapshot = network._snapshot
        memos = dict(snapshot.neighbours)
        components = snapshot.components
        generation = network.topology_generation
        discoveries = network.router.discoveries
        advance_to(2.5)  # past the deadline; b is 99.03 m from a
        assert network.is_connected()
        assert network.pairs_rechecked == 1
        assert network.advances_skipped == 1
        assert network.hosts_reevaluated == 0 and network.hosts_moved == 0
        assert sweeps == [0.5]
        assert network._snapshot is snapshot
        assert snapshot.components is components
        assert all(snapshot.neighbours[host] is memo for host, memo in memos.items())
        assert network.topology_generation == generation
        assert snapshot.stable_until > 2.5  # renewed from the current distance
        assert network.router.route("b", "c").hops == ("b", "a", "c")
        assert network.router.discoveries == discoveries  # the cached route held
        assert_same_geometry(network, reference)

    def test_an_expiry_whose_pair_crossed_the_range_advances(
        self, vectorized, monkeypatch
    ):
        network, reference, sweeps, advance_to = self.build(vectorized, monkeypatch)
        generation = network.topology_generation
        advance_to(15.0)  # b is 100.06 m from a: the a-b link broke
        assert network.neighbours_of("a") == {"c"}
        assert network.pairs_rechecked == 1
        assert network.advances_skipped == 0
        assert network.hosts_reevaluated == 1  # the advance re-evaluated b
        assert network.topology_generation == generation + 1
        # The fallback swept at once, before any query needed the components:
        # the new links are certified again.
        assert sweeps == [0.5, 15.0]
        assert network._snapshot.stable_until > 15.0
        assert not network.is_reachable("b", "c")
        assert_same_geometry(network, reference)


@pytest.mark.parametrize("vectorized", VECTORIZED)
def test_sparse_advance_drops_a_broken_route(vectorized):
    # One mover in seven takes the sparse disc-diff branch.  The relay r1
    # walks up the y axis out of range of s and t; the advance must move the
    # topology generation, or the cached route and s's BFS tree go stale.
    scheduler = EventScheduler()
    network = AdHocWirelessNetwork(scheduler, radio_range=100.0, vectorized=vectorized)
    placements = {
        "s": Point(0, 0),
        "t": Point(160, 0),
        "r1": WaypointMobility([Point(80, 0), Point(80, 1000)], speed=10.0),
        "r2": Point(80, 30),
        "far-1": Point(5000, 5000),
        "far-2": Point(5000, 5300),
        "far-3": Point(5300, 5000),
    }
    for host, place in placements.items():
        network.register(host, lambda m: None)
        network.place_host(host, place)
    assert network.router.route("s", "t").hops == ("s", "r1", "t")
    scheduler.clock.advance(12.0)  # r1 is at (80, 120)
    hops = network.router.route("s", "t").hops
    assert hops == ("s", "r2", "t")
    assert all(in_range_by_position(network, *hop) for hop in zip(hops, hops[1:]))
    assert network.router.discoveries == 2
    assert network.grid_rebuilds == 1
