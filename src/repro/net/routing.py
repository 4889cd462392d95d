"""AODV-style multi-hop routing over the ad hoc connectivity graph.

The paper's construction algorithm "takes its inspiration from spanning tree
algorithms and routing algorithms such as AODV", and its empirical setup
assumes all hosts are mutually reachable.  When hosts move far enough apart
that direct radio contact is lost, messages must be relayed by intermediate
hosts.  This module implements the *route computation* part of AODV
(Ad hoc On-demand Distance Vector, Perkins & Belding-Royer 1999) over the
instantaneous connectivity graph:

* routes are discovered on demand (when a message needs one);
* discovery conceptually floods a route request (RREQ) and unicasts a route
  reply (RREP) back along the reverse path — we model the *cost* of that
  flood as extra latency charged to the first message using the route;
* discovered routes are cached and invalidated when any link on the path
  breaks.

Discovery and revalidation are keyed by a *topology generation* when the
network supplies a ``generation_of`` callback: a counter that advances
wherever a radio link may have appeared or disappeared, and ``None`` for a
host the network cannot vouch for.  A breadth-first search that visits
neighbours in sorted order gives every host the same parent whatever the
destination, so one full tree per source answers every destination with
the route an early-exit search would find; the router keeps one tree per
source until the generation moves.  A cached route stamped with the
current generation is valid without touching a link; otherwise its links
are re-walked, and a route whose own links are intact survives (and is
re-stamped).  Mobile scenarios therefore keep most of their routes across
movement instead of rediscovering the whole table.

The class operates purely on host positions and radio range supplied by the
ad hoc network; it has no dependency on the middleware above it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping


@dataclass(frozen=True)
class Route:
    """A discovered multi-hop route."""

    source: str
    destination: str
    hops: tuple[str, ...]
    """The full node sequence, source first and destination last."""

    @property
    def hop_count(self) -> int:
        """Number of radio transmissions needed to traverse the route."""

        return max(0, len(self.hops) - 1)

    def __repr__(self) -> str:
        return f"Route({' -> '.join(self.hops)})"


class RouteNotFound(Exception):
    """No path currently exists between the two hosts."""


class _CachedRoute:
    """A cached route plus the topology generation it was last validated in."""

    __slots__ = ("route", "generation")

    def __init__(self, route: Route, generation: int | None) -> None:
        self.route = route
        self.generation = generation


class AodvRouter:
    """On-demand route discovery with caching over a dynamic neighbour graph.

    Parameters
    ----------
    neighbours_of:
        Callback returning the hosts currently within direct radio range of
        a given host.  The ad hoc network supplies this; the router never
        looks at positions itself.
    generation_of:
        Callback returning the network's *topology generation* for a set of
        hosts — a counter that advances wherever a radio link may have
        changed — or ``None`` when it cannot vouch for one of them.  The
        default vouches for nothing: every discovery runs a fresh search
        and every cache hit walks its links.
    """

    def __init__(
        self,
        neighbours_of: Callable[[str], frozenset[str]],
        generation_of: Callable[[Iterable[str]], int | None] = lambda hosts: None,
    ) -> None:
        self._neighbours_of = neighbours_of
        self._generation_of = generation_of
        self._cache: dict[tuple[str, str], _CachedRoute] = {}
        # source -> (generation, BFS parent map); the source maps to itself.
        self._trees: dict[str, tuple[int, dict[str, str]]] = {}
        self.discoveries = 0
        self.cache_hits = 0

    # -- route lookup -------------------------------------------------------
    def route(self, source: str, destination: str) -> Route:
        """Return a route from ``source`` to ``destination``.

        Uses the cached route when it is still valid, otherwise performs a
        breadth-first route discovery (the idealised outcome of an RREQ
        flood).  Raises :class:`RouteNotFound` when the hosts are currently
        partitioned.
        """

        return self.lookup(source, destination)[0]

    def lookup(self, source: str, destination: str) -> tuple[Route, bool]:
        """Like :meth:`route` but also reports whether the cache answered.

        Returns ``(route, was_cached)``; a single validation pass serves
        both, so callers that need the freshness bit (the latency model
        charges route discovery only to the first message) do not pay for
        validating the route twice.
        """

        if source == destination:
            return Route(source, destination, (source,)), True
        entry = self._cache.get((source, destination))
        if entry is not None and self._entry_valid(entry):
            self.cache_hits += 1
            return entry.route, True
        route = self._discover(source, destination)
        generation = self._generation_of(route.hops)
        self._cache[(source, destination)] = _CachedRoute(route, generation)
        # AODV installs the reverse path for free as the RREP travels back.
        reverse = Route(destination, source, tuple(reversed(route.hops)))
        self._cache[(destination, source)] = _CachedRoute(reverse, generation)
        return route, False

    # -- internals ----------------------------------------------------------------
    def _entry_valid(self, entry: _CachedRoute) -> bool:
        generation = self._generation_of(entry.route.hops)
        if generation is not None and generation == entry.generation:
            return True
        # Some link may have changed since the entry was last validated (or
        # a hop is one the network cannot vouch for): the route may still be
        # intact, so re-check its links and re-stamp it when it survives.
        if not self._links_valid(entry.route):
            return False
        entry.generation = generation
        return True

    def _links_valid(self, route: Route) -> bool:
        for first, second in zip(route.hops, route.hops[1:]):
            if second not in self._neighbours_of(first):
                return False
        return True

    def _discover(self, source: str, destination: str) -> Route:
        self.discoveries += 1
        parents = self._tree(source)
        if destination not in parents:
            raise RouteNotFound(f"no route from {source!r} to {destination!r}")
        return Route(source, destination, self._unwind(parents, source, destination))

    def _tree(self, source: str) -> dict[str, str]:
        """The BFS parent map from ``source`` over the current topology.

        Breadth-first search = minimum hop count, which is what AODV's
        first-RREQ-wins behaviour converges to on an idle network.  Visiting
        neighbours in sorted order fixes every host's parent whatever the
        destination, so one tree per source and generation serves them all.
        """

        generation = self._generation_of((source,))
        if generation is not None:
            kept = self._trees.get(source)
            if kept is not None and kept[0] == generation:
                return kept[1]
        parents = {source: source}
        queue: deque[str] = deque([source])
        while queue:
            current = queue.popleft()
            for neighbour in sorted(self._neighbours_of(current)):
                if neighbour not in parents:
                    parents[neighbour] = current
                    queue.append(neighbour)
        if generation is not None:
            self._trees[source] = (generation, parents)
        return parents

    @staticmethod
    def _unwind(parents: Mapping[str, str], source: str, destination: str) -> tuple[str, ...]:
        path = [destination]
        while path[-1] != source:
            path.append(parents[path[-1]])
        return tuple(reversed(path))

    def __repr__(self) -> str:
        return (
            f"AodvRouter(cached={len(self._cache)}, discoveries={self.discoveries}, "
            f"cache_hits={self.cache_hits})"
        )
