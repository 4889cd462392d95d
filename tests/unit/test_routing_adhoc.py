"""Unit tests for AODV-style routing and the ad hoc wireless network model."""

import pytest

from repro.core.errors import HostUnreachableError
from repro.mobility.geometry import Point
from repro.mobility.models import WaypointMobility
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.faults import FaultPlane, LinkFaultPolicy
from repro.net.messages import Message
from repro.net.routing import AodvRouter, Route, RouteNotFound
from repro.sim.events import EventScheduler


class TestRoute:
    def test_hop_count_and_links(self):
        route = Route("a", "c", ("a", "b", "c"))
        assert route.hop_count == 2
        assert list(zip(route.hops, route.hops[1:])) == [("a", "b"), ("b", "c")]
        assert Route("a", "a", ("a",)).hop_count == 0


class TestAodvRouter:
    def make_router(self, adjacency: dict[str, set[str]]) -> AodvRouter:
        return AodvRouter(lambda host: frozenset(adjacency.get(host, set())))

    def test_direct_and_multi_hop_routes(self):
        router = self.make_router({"a": {"b"}, "b": {"a", "c"}, "c": {"b"}})
        assert router.route("a", "b").hop_count == 1
        assert router.route("a", "c").hops == ("a", "b", "c")
        assert router.route("a", "a").hop_count == 0

    def test_shortest_route_selected(self):
        adjacency = {
            "a": {"b", "x"},
            "b": {"a", "c"},
            "x": {"a", "y"},
            "y": {"x", "c"},
            "c": {"b", "y"},
        }
        router = self.make_router(adjacency)
        assert router.route("a", "c").hop_count == 2

    def test_route_caching_and_reverse_install(self):
        router = self.make_router({"a": {"b"}, "b": {"a", "c"}, "c": {"b"}})
        route, cached = router.lookup("a", "c")
        assert not cached and route.hops == ("a", "b", "c")
        assert router.lookup("a", "c") == (route, True)
        # The reverse path is installed by the same discovery.
        reverse, cached = router.lookup("c", "a")
        assert cached and reverse.hops == ("c", "b", "a")
        assert router.discoveries == 1
        assert router.cache_hits == 2

    def test_route_not_found(self):
        router = self.make_router({"a": set(), "b": set()})
        with pytest.raises(RouteNotFound):
            router.route("a", "b")

    def test_invalidation_on_link_break(self):
        adjacency = {
            "a": {"b", "x"},
            "b": {"a", "c"},
            "c": {"b", "x"},
            "x": {"a", "c"},
        }
        router = self.make_router(adjacency)
        assert router.route("a", "c").hops == ("a", "b", "c")
        adjacency["b"].discard("c")
        adjacency["c"].discard("b")
        route, cached = router.lookup("a", "c")
        assert not cached and route.hops == ("a", "x", "c")
        assert router.discoveries == 2
        # The new discovery replaced the broken reverse route too.
        assert router.lookup("c", "a") == (
            Route("c", "a", ("c", "x", "a")),
            True,
        )

    def test_stale_cache_detected_via_neighbour_callback(self):
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        router = self.make_router(adjacency)
        router.route("a", "c")
        adjacency["b"].discard("c")
        adjacency["c"].discard("b")
        # The cached route's links are re-walked, and no other path exists.
        with pytest.raises(RouteNotFound):
            router.lookup("a", "c")
        assert router.cache_hits == 0

    def test_generation_stamp_answers_without_walking_links(self):
        adjacency = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        walked: list[str] = []

        def neighbours_of(host: str) -> frozenset[str]:
            walked.append(host)
            return frozenset(adjacency[host])

        generation = [1]
        router = AodvRouter(neighbours_of, lambda hosts: generation[0])
        router.route("a", "c")
        walked.clear()
        assert router.lookup("a", "c")[1]
        assert walked == []
        # A new generation re-walks the route's links; intact, it survives.
        generation[0] = 2
        assert router.lookup("a", "c")[1]
        assert walked == ["a", "b"]
        assert router.discoveries == 1


def make_adhoc(**kwargs):
    scheduler = EventScheduler()
    network = AdHocWirelessNetwork(scheduler, radio_range=100.0, **kwargs)
    inboxes: dict[str, list[Message]] = {}
    positions = {"a": Point(0, 0), "b": Point(80, 0), "c": Point(160, 0)}
    for host, position in positions.items():
        inboxes[host] = []
        network.register(host, inboxes[host].append)
        network.place_host(host, position)
    return network, scheduler, inboxes


class TestAdHocNetwork:
    def test_radio_range_defines_neighbours(self):
        network, _, _ = make_adhoc()
        assert network.in_radio_range("a", "b")
        assert not network.in_radio_range("a", "c")
        assert network.neighbours_of("b") == {"a", "c"}

    def test_multi_hop_reachability_and_latency(self):
        network, _, _ = make_adhoc(multi_hop=True)
        assert network.is_reachable("a", "c")
        message = Message(sender="a", recipient="c")
        two_hop = network.latency_for(message)
        one_hop = network.latency_for(Message(sender="a", recipient="b"))
        assert two_hop > one_hop

    def test_single_hop_mode_rejects_distant_hosts(self):
        network, _, _ = make_adhoc(multi_hop=False)
        assert not network.is_reachable("a", "c")
        with pytest.raises(HostUnreachableError):
            network.send(Message(sender="a", recipient="c"))

    def test_delivery_over_two_hops(self):
        network, scheduler, inboxes = make_adhoc(multi_hop=True)
        network.send(Message(sender="a", recipient="c"))
        scheduler.run()
        assert len(inboxes["c"]) == 1

    @pytest.mark.parametrize("multi_hop", [False, True])
    def test_latency_for_an_unreachable_pair_raises(self, multi_hop):
        network, _, _ = make_adhoc(multi_hop=multi_hop)
        network.place_host("c", Point(1000, 0))  # out of everyone's range
        assert not network.is_reachable("a", "c")
        with pytest.raises(HostUnreachableError):
            network.latency_for(Message(sender="a", recipient="c"))

    def test_a_dropped_message_looks_up_no_route(self):
        network, scheduler, inboxes = make_adhoc(multi_hop=True)
        network.install_fault_plane(
            FaultPlane(default_policy=LinkFaultPolicy(drop_probability=1.0))
        )
        network.send(Message(sender="a", recipient="c"))
        scheduler.run()
        assert inboxes["c"] == [] and network.statistics.messages_dropped == 1
        assert network.router.discoveries == 0
        network.install_fault_plane(None)
        network.send(Message(sender="a", recipient="c"))
        scheduler.run()
        assert len(inboxes["c"]) == 1 and network.router.discoveries == 1

    def test_latency_scales_with_message_size(self):
        network, _, _ = make_adhoc()
        small = Message(sender="a", recipient="b")

        class Big(Message):
            def size_bytes(self) -> int:  # noqa: D401 - simple override
                return 1_000_000

        big = Big(sender="a", recipient="b")
        assert network.latency_for(big) > network.latency_for(small)

    def test_positions_follow_mobility(self):
        scheduler = EventScheduler()
        network = AdHocWirelessNetwork(scheduler, radio_range=50.0)
        network.register("mobile", lambda m: None)
        network.register("base", lambda m: None)
        network.place_host("base", Point(0, 0))
        network.place_host(
            "mobile", WaypointMobility([Point(0, 0), Point(200, 0)], speed=10.0)
        )
        assert network.in_radio_range("base", "mobile")
        scheduler.clock.advance(20.0)  # mobile has walked 200 m
        assert not network.in_radio_range("base", "mobile")
        assert not network.is_connected()

    def test_is_connected(self):
        network, _, _ = make_adhoc(multi_hop=True)
        assert network.is_connected()

    def test_parameter_validation(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            AdHocWirelessNetwork(scheduler, radio_range=0)
        with pytest.raises(ValueError):
            AdHocWirelessNetwork(scheduler, goodput_fraction=0)
