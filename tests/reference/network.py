"""Link and route checks of an ad hoc network against its own positions
and against a reference network over the same placements."""

from __future__ import annotations

from repro.net.routing import RouteNotFound


def in_range_by_position(network, host_a: str, host_b: str) -> bool:
    """The radio-range verdict from the hosts' current positions alone
    (``in_radio_range`` answers from the same memos it would check)."""

    distance = network.position_of(host_a).distance_to(network.position_of(host_b))
    return distance <= network.radio_range


def route_hops(network, source: str, destination: str) -> tuple[str, ...] | None:
    try:
        return network.router.route(source, destination).hops
    except RouteNotFound:
        return None


def assert_same_links_and_routes(network, reference, hosts) -> None:
    """Every ordered pair: the same radio-range verdict and the same route,
    and every hop of the route in range by the hosts' current positions.

    Both routers must see the same sequence of lookups, so call this at
    the same instants on both networks."""

    now = network.scheduler.clock.now()
    for a in hosts:
        for b in hosts:
            verdict = network.in_radio_range(a, b)
            assert verdict == reference.in_radio_range(a, b), (a, b, now)
            hops = route_hops(network, a, b)
            assert hops == route_hops(reference, a, b), (a, b, now)
            for first, second in zip(hops or (), (hops or ())[1:]):
                assert in_range_by_position(network, first, second), (hops, now)
