"""Property: vectorized geometry kernels ≡ scalar reference paths.

Two layers of the same contract, in the repo's flag+equivalence idiom:

* two :class:`~repro.net.adhoc.AdHocWirelessNetwork` instances over the
  same placements — one on the batched NumPy kernels
  (``vectorized=True``), one on the scalar per-host loops
  (``vectorized=False``) — must agree on every position, neighbour set,
  radio-range verdict, route, reachability answer, and connectivity
  verdict at every sampled instant, and on the maintenance counters (the
  vectorized advance must pop, re-evaluate, and move exactly the hosts the
  scalar one does, re-check the same certified pairs, and advance the
  topology generation on the same branches);
* :class:`~repro.net.kernels.LegTable` replay must be *bit-identical* to
  the mobility models' scalar ``position_at``, including degenerate legs
  (zero velocity, single-waypoint rests, ``inf`` validity horizons), and
  its next-move times must equal the scalar network's derivation from
  ``motion_at``.

The near-radius ulp regression (exact separation beyond the radius,
rounded distance on it) is pinned in ``tests/unit/test_kernels.py``; the
coordinate strategies here include the sub-metre cluster scale where
boundary ties actually occur.
"""

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("numpy")

from repro.mobility.geometry import Point, Rectangle
from repro.mobility.models import (
    RandomWaypointMobility,
    StaticMobility,
    WaypointMobility,
)
from repro.net import kernels
from repro.net.adhoc import AdHocWirelessNetwork
from repro.sim.events import EventScheduler

from ..reference.network import assert_same_links_and_routes

SETTINGS = settings(max_examples=30, deadline=None)

SITE = Rectangle(0.0, 0.0, 300.0, 300.0)

coordinates = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)
points = st.builds(Point, coordinates, coordinates)

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


def build_network(specs, vectorized):
    scheduler = EventScheduler()
    network = AdHocWirelessNetwork(
        scheduler, radio_range=100.0, vectorized=vectorized
    )
    for index, spec in enumerate(specs):
        host = f"h{index}"
        network.register(host, lambda m: None)
        network.place_host(host, make_model(spec))
    return network, scheduler


@given(populations, schedules)
@SETTINGS
def test_vectorized_network_equivalent_to_scalar(specs, deltas):
    batched, batched_scheduler = build_network(specs, vectorized=True)
    scalar, scalar_scheduler = build_network(specs, vectorized=False)

    hosts = sorted(batched.host_ids)
    for delta in deltas:
        batched_scheduler.clock.advance(delta)
        scalar_scheduler.clock.advance(delta)
        # A sweep first: both paths must certify the same horizon, so they
        # skip the same instants and answer them from a lagging grid.
        assert batched.is_connected() == scalar.is_connected()
        for host in hosts:
            assert batched.position_of(host) == scalar.position_of(host), host
        assert dict(batched.positions()) == dict(scalar.positions())
        for host in hosts:
            assert batched.neighbours_of(host) == scalar.neighbours_of(host), host
        assert_same_links_and_routes(batched, scalar, hosts)
        for a in hosts:
            for b in hosts:
                assert batched.is_reachable(a, b) == scalar.is_reachable(a, b)
        assert batched.is_connected() == scalar.is_connected()
    # The batched maintenance must do exactly the scalar path's work: same
    # snapshots, same heap pops, same applied moves, same skipped advances,
    # the same pairs re-checked at expiries, and the same branches (the
    # generation advances where memos drop).
    for counter in (
        "snapshots_built",
        "grid_rebuilds",
        "hosts_reevaluated",
        "hosts_moved",
        "advances_skipped",
        "pairs_rechecked",
        "topology_generation",
    ):
        assert getattr(batched, counter) == getattr(scalar, counter), counter


@given(populations, schedules)
@SETTINGS
def test_leg_table_replay_is_bit_identical(specs, deltas):
    table_models = [make_model(spec) for spec in specs]
    reference_models = [make_model(spec) for spec in specs]
    table = kernels.LegTable(table_models)
    scalar, _ = build_network(specs, vectorized=False)

    time = 0.0
    for delta in deltas:
        time += delta
        xs, ys = table.positions_at(time)
        for index, model in enumerate(reference_models):
            expected = model.position_at(time)
            assert Point(xs[index], ys[index]) == expected, (index, time)
        move_times = table.next_move_times(time, range(len(specs)))
        for index in range(len(specs)):
            expected = scalar._next_move_time(f"h{index}", time)
            assert move_times[index] == expected, (index, time)

