"""Radio geometry from first principles: the oracle for the ad hoc network,
plus link and route checks of a network against its own positions and
against a reference over the same placements."""

from __future__ import annotations

from repro.mobility.geometry import Point
from repro.mobility.models import StaticMobility
from repro.net.routing import AodvRouter, RouteNotFound


class ReferenceNetwork:
    """An :class:`~repro.net.adhoc.AdHocWirelessNetwork` without memos.

    Every query evaluates fresh ``position_at`` calls at the scheduler's
    current instant: links are ``position_of`` distances, components a
    breadth-first search over them, and routes come from an
    :class:`~repro.net.routing.AodvRouter` over this model's own neighbours
    with no topology generation, so every cached route walks its links.
    Nothing is gridded, memoized or carried from one instant to the next.
    A host that is placed but not registered (a crashed relay) has a
    position and neighbours of its own, but is nobody's neighbour and in no
    component, as on the network.
    """

    def __init__(self, scheduler, radio_range: float, multi_hop: bool = True) -> None:
        self.scheduler = scheduler
        self.radio_range = radio_range
        self.multi_hop = multi_hop
        self.host_ids: set[str] = set()
        self._mobility = {}
        self.router = AodvRouter(self.neighbours_of)

    def register(self, host_id: str, handler=None) -> None:
        self.host_ids.add(host_id)

    def place_host(self, host_id: str, mobility) -> None:
        if isinstance(mobility, Point):
            mobility = StaticMobility(mobility)
        self._mobility[host_id] = mobility

    def position_of(self, host_id: str) -> Point:
        mobility = self._mobility.get(host_id)
        if mobility is None:
            return Point(0.0, 0.0)  # never placed: pinned at the origin
        return mobility.position_at(self.scheduler.clock.now())

    def positions(self) -> dict[str, Point]:
        return {host: self.position_of(host) for host in self.host_ids}

    def in_radio_range(self, host_a: str, host_b: str) -> bool:
        if host_a == host_b:
            return True
        distance = self.position_of(host_a).distance_to(self.position_of(host_b))
        return distance <= self.radio_range

    def neighbours_of(self, host_id: str) -> frozenset[str]:
        return frozenset(
            other
            for other in self.host_ids
            if other != host_id and self.in_radio_range(host_id, other)
        )

    def component_labels(self) -> dict[str, str]:
        """Each registered host mapped to the first host of its component."""

        labels: dict[str, str] = {}
        for start in sorted(self.host_ids):
            if start in labels:
                continue
            labels[start] = start
            frontier = [start]
            for current in frontier:
                for neighbour in self.neighbours_of(current):
                    if neighbour not in labels:
                        labels[neighbour] = start
                        frontier.append(neighbour)
        return labels

    def is_reachable(self, sender: str, recipient: str) -> bool:
        if self.in_radio_range(sender, recipient):
            return True
        if not self.multi_hop:
            return False
        labels = self.component_labels()
        return sender in labels and labels.get(recipient) == labels[sender]

    def is_connected(self) -> bool:
        if not self.multi_hop:
            hosts = sorted(self.host_ids)
            return all(self.in_radio_range(a, b) for a in hosts for b in hosts)
        return len(set(self.component_labels().values())) <= 1


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


def assert_same_geometry(network, reference, hosts=None) -> None:
    """Connectivity first (the sweep that may certify a stability horizon),
    then every position, neighbour set, link, route and reachability
    verdict of ``hosts`` (default: the registered hosts) equal the
    reference's at the current instant."""

    now = network.scheduler.clock.now()
    hosts = sorted(network.host_ids) if hosts is None else hosts
    assert network.is_connected() == reference.is_connected(), now
    for host in hosts:
        assert network.position_of(host) == reference.position_of(host), (host, now)
    assert dict(network.positions()) == reference.positions(), now
    for host in hosts:
        assert network.neighbours_of(host) == reference.neighbours_of(host), (host, now)
    assert_same_links_and_routes(network, reference, hosts)
    for a in hosts:
        for b in hosts:
            verdict = network.is_reachable(a, b)
            assert verdict == reference.is_reachable(a, b), (a, b, now)
    assert network.is_connected() == reference.is_connected(), now
