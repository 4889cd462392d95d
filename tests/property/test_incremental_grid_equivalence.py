"""Property: event-driven grid maintenance ≡ geometry evaluated afresh.

An :class:`~repro.net.adhoc.AdHocWirelessNetwork`, which advances its
snapshot across instants and skips advances inside a sweep's stability
horizon, and the :class:`~tests.reference.network.ReferenceNetwork`, which
evaluates every position afresh at every query, over the same placements
and mobility schedules must agree on every position, neighbour set,
radio-range verdict, route, reachability answer, and connectivity verdict
at every sampled instant of an increasing time schedule, and every hop of
every route must be in range by the hosts' positions.  Mixed populations
(static hosts, scripted waypoint walkers, random-waypoint wanderers)
exercise both the skip path (hosts provably at rest, instants inside a
sweep's stability horizon, and expiries renewed by re-checking the pairs
that came due) and the move path (re-evaluation, grid relocation, memo
invalidation).  Mobility models memoize internally, so
each network gets its own instances built from the same declarative spec.
"""

from hypothesis import given, settings, strategies as st

from repro.mobility.geometry import Point, Rectangle
from repro.mobility.models import (
    RandomWaypointMobility,
    StaticMobility,
    WaypointMobility,
)
from repro.net.adhoc import AdHocWirelessNetwork
from repro.sim.events import EventScheduler

from ..reference.network import (
    ReferenceNetwork,
    assert_same_geometry,
    assert_same_links_and_routes,
)

SETTINGS = settings(max_examples=30, deadline=None)

SITE = Rectangle(0.0, 0.0, 300.0, 300.0)

coordinates = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)
points = st.builds(Point, coordinates, coordinates)

# Declarative mobility specs: one spec builds any number of identical,
# independently-memoizing model instances.
static_specs = st.tuples(st.just("static"), points)
waypoint_specs = st.tuples(
    st.just("waypoint"),
    st.lists(points, min_size=1, max_size=4),
    st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
random_specs = st.tuples(
    st.just("random"),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
mobility_specs = st.one_of(static_specs, waypoint_specs, random_specs)

populations = st.lists(mobility_specs, min_size=0, max_size=10)
# Steps down to 1e-4 s land many instants inside one stability horizon,
# so the skip path and the lagging grid get exercised, not just advances.
schedules = st.lists(
    st.one_of(
        st.floats(min_value=1e-4, max_value=0.01, allow_nan=False),
        st.floats(min_value=0.01, max_value=60.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)


def make_model(spec):
    kind = spec[0]
    if kind == "static":
        return StaticMobility(spec[1])
    if kind == "waypoint":
        _, waypoints, speed, pause = spec
        return WaypointMobility(waypoints, speed=speed, pause=pause)
    _, seed, pause = spec
    return RandomWaypointMobility(SITE, seed=seed, pause=pause)


def build_network(specs, build=AdHocWirelessNetwork):
    scheduler = EventScheduler()
    network = build(scheduler, radio_range=100.0)
    for index, spec in enumerate(specs):
        host = f"h{index}"
        network.register(host, lambda m: None)
        network.place_host(host, make_model(spec))
    return network, scheduler


@given(populations, schedules)
@SETTINGS
def test_incremental_maintenance_equivalent_to_rebuild(specs, deltas):
    incremental, inc_scheduler = build_network(specs)
    reference, ref_scheduler = build_network(specs, ReferenceNetwork)

    for delta in deltas:
        inc_scheduler.clock.advance(delta)
        ref_scheduler.clock.advance(delta)
        # A sweep first (inside assert_same_geometry), so later instants can
        # fall inside its horizon and every query runs against a lagging grid.
        assert_same_geometry(incremental, reference)
    # The network may only have rebuilt its very first snapshot.
    if specs:
        assert incremental.grid_rebuilds <= 1


@given(populations, schedules)
@SETTINGS
def test_incremental_maintenance_matches_brute_force(specs, deltas):
    """Links and routes first, the sweep last: each instant's first query
    advances the snapshot instead of answering from a fresh sweep."""

    incremental, inc_scheduler = build_network(specs)
    brute, brute_scheduler = build_network(specs, ReferenceNetwork)

    hosts = sorted(incremental.host_ids)
    for delta in deltas:
        inc_scheduler.clock.advance(delta)
        brute_scheduler.clock.advance(delta)
        assert_same_links_and_routes(incremental, brute, hosts)
        for host in hosts:
            assert incremental.neighbours_of(host) == brute.neighbours_of(host), host
        assert incremental.is_connected() == brute.is_connected()


def test_renewed_certificates_answer_as_the_reference():
    """A ten-host random-waypoint fleet sampled every 0.2 s for 20 s: some
    expiries renew the certificate by re-checking their due pairs, others
    change a link and advance, and every answer equals the reference's."""

    specs = [("random", seed, 0.0) for seed in range(10)]
    network, scheduler = build_network(specs)
    reference, reference_scheduler = build_network(specs, ReferenceNetwork)
    assert_same_geometry(network, reference)
    renewals = 0
    for _ in range(100):
        scheduler.clock.advance(0.2)
        reference_scheduler.clock.advance(0.2)
        expired = network._snapshot.stable_until <= scheduler.clock.now()
        skipped = network.advances_skipped
        assert_same_geometry(network, reference)
        renewals += expired and network.advances_skipped > skipped
    assert renewals > 0
    assert network.pairs_rechecked >= renewals
    assert network.topology_generation > 1  # some expiries did advance
