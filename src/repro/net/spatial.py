"""A uniform hash-grid spatial index over host positions.

The ad hoc wireless model answers two geometric questions constantly:
"which hosts are within radio range of this one?" (every routing step,
every broadcast) and "is the community currently partitioned?" (every
connectivity probe).  Answering them by scanning every host is O(n) and
O(n²) respectively, which caps simulations at a few dozen hosts.

:class:`SpatialGridIndex` hashes a positions snapshot into square cells of
``cell_size`` metres.  A range query around a point only has to look at the
cells overlapping the query circle — for ``cell_size == radius`` that is
the 3×3 block around the query cell — so ``neighbours_of`` costs O(k) in
the local host density k rather than O(n).  Connectivity becomes a single
breadth-first sweep over the grid (O(V + E) in the radio graph) instead of
all-pairs routing.

The index snapshots one instant of simulated time.  The network layer
builds one snapshot when the membership changes and then *advances* it in
place as the clock moves: :meth:`SpatialGridIndex.move` relocates a single
host and rehashes it only when its cell actually changed, so a tick in
which k hosts moved costs O(k) — not an O(n) rebuild.  Within one instant
the index is read-only, which matches how the discrete event simulation
batches many queries (one routing BFS, one broadcast fan-out) at the same
instant.

Choosing ``cell_size``: the query cost is (cells scanned) × (hosts per
cell).  ``cell_size == radius`` scans 9 cells and is the sweet spot when
hosts are spread over an area much larger than one radio footprint; larger
cells degrade towards the brute-force scan (everyone lands in one cell),
much smaller cells waste time visiting empty cells.  The default is
therefore the query radius itself.

Stability horizon.  The whole-fleet sweep
(:meth:`SpatialGridIndex.neighbour_sets_and_labels`, mirrored by
:meth:`~repro.net.kernels.VectorGridIndex.neighbour_sets_and_labels`) can
also certify how long its answer stays true.  Given each host's speed ``s``
on its current trajectory leg and a float-error ``margin``, a pair's
distance changes by at most ``(s_i + s_j)`` metres per second, so neither a
link nor a non-link can flip before the *horizon*, the minimum of

* ``(|d_ij − R| − margin) / (s_i + s_j)`` over every pair sharing a cell
  block, with ``d_ij = sqrt(dx*dx + dy*dy)``;
* ``(e_i − margin) / (s_i + s_max)`` per host, where ``e_i`` is its
  distance to its own cell's edges: a host outside ``i``'s block is at
  least ``reach * cell_size + e_i >= R + e_i`` away, so the gap to close is
  ``e_i`` at a closing speed of at most ``s_i + s_max``.

Pairs with zero closing speed never flip (both positions are constant) and
contribute nothing.  The bound holds only while every host stays on the
leg its speed came from; capping it at the earliest leg end is the
caller's job.  The sweep returns the terms rather than only their
minimum, as a :class:`Certificate`: the earliest cell-edge bound, and the
bound of each moving block pair (each unordered pair once) that falls
before it, so that a caller can re-check just the pairs that come due and
renew their bounds.  A pair bounded beyond the cell-edge bound cannot come
due before that bound does, so it is left out.  Both index types evaluate
the same float operations in the same order, so they return the identical
certificate.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from ..mobility.geometry import Point

_Cell = tuple[int, int]


class Certificate(NamedTuple):
    """What a sweep proved, in seconds after the sweep's instant."""

    #: The earliest cell-edge bound (``inf`` when nothing moves).
    edge: float
    #: ``(bound, host, other, closing speed)`` per moving block pair with
    #: ``host < other`` whose bound is below ``edge``.
    pairs: list[tuple[float, str, str, float]]

#: Relative padding applied when converting a query radius into a cell scan
#: range.  Distances are computed through rounded float subtraction and
#: ``math.hypot`` (itself accurate to ~1 ulp), so a pair whose *exact*
#: coordinate delta is a few ulps beyond the radius can still report a
#: rounded distance <= radius — while their floor-quantised cells sit one
#: ring further apart than ``ceil(radius / cell_size)`` covers (e.g. y=1.0
#: vs y=-1e-158 at radius 1.0: distance rounds to exactly 1.0 but the cells
#: are two apart).  Padding the radius by a handful of ulps before the cell
#: arithmetic makes the scan range cover every such pair; callers that want
#: to keep the 3x3 scan of the ``cell_size == radius`` sweet spot should
#: apply the same factor to the cell size (see
#: :data:`padded_cell_size`).
_RADIUS_SLOP = 1.0 + 2.0**-48


def padded_cell_size(radius: float) -> float:
    """The cell size that keeps radius queries on the minimal scan block.

    ``SpatialGridIndex.near`` pads the radius by :data:`_RADIUS_SLOP` when
    sizing its cell scan; a grid built with exactly ``cell_size=radius``
    would therefore scan one extra ring of cells.  Building it with this
    slightly inflated size (a factor of ~3.6e-15 — sub-picometre at radio
    ranges) keeps the scan at ``ceil(padded/cell) == 1``, i.e. the 3x3
    block.
    """

    return radius * _RADIUS_SLOP


class SpatialGridIndex:
    """An immutable uniform-grid index over a ``{host_id: Point}`` snapshot.

    Parameters
    ----------
    positions:
        The positions of every indexed host at one instant.
    cell_size:
        Side length (metres) of the square grid cells.  Defaults should be
        the radius of the range queries the index will serve.
    """

    def __init__(self, positions: Mapping[str, Point], cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = float(cell_size)
        self._positions: dict[str, Point] = dict(positions)
        self._cells: dict[_Cell, list[str]] = {}
        for host, point in self._positions.items():
            self._cells.setdefault(self._cell_of(point), []).append(host)

    # -- basic views --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, host_id: str) -> bool:
        return host_id in self._positions

    @property
    def hosts(self) -> frozenset[str]:
        return frozenset(self._positions)

    @property
    def occupied_cells(self) -> int:
        return len(self._cells)

    def position_of(self, host_id: str) -> Point:
        return self._positions[host_id]

    def _cell_of(self, point: Point) -> _Cell:
        return (int(point.x // self.cell_size), int(point.y // self.cell_size))

    # -- incremental maintenance --------------------------------------------
    def move(self, host_id: str, point: Point) -> None:
        """Relocate one indexed host, rehashing only when its cell changed.

        The common case under smooth mobility — a host drifting within its
        current cell — updates one dict entry and touches no bucket.  A
        bucket that empties is deleted so the cell table never outgrows the
        live population.
        """

        old_cell = self._cell_of(self._positions[host_id])
        self._positions[host_id] = point
        new_cell = self._cell_of(point)
        if new_cell == old_cell:
            return
        bucket = self._cells[old_cell]
        bucket.remove(host_id)
        if not bucket:
            del self._cells[old_cell]
        self._cells.setdefault(new_cell, []).append(host_id)

    # -- range queries ------------------------------------------------------
    def near(self, point: Point, radius: float) -> frozenset[str]:
        """Every indexed host within ``radius`` metres of ``point`` (inclusive)."""

        if radius < 0:
            raise ValueError("radius must be non-negative")
        reach = math.ceil(radius * _RADIUS_SLOP / self.cell_size)
        cx, cy = self._cell_of(point)
        found: list[str] = []
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                bucket = self._cells.get((cx + dx, cy + dy))
                if not bucket:
                    continue
                for host in bucket:
                    if self._positions[host].distance_to(point) <= radius:
                        found.append(host)
        return frozenset(found)

    def neighbours_of(self, host_id: str, radius: float) -> frozenset[str]:
        """Hosts within ``radius`` of ``host_id``, excluding ``host_id`` itself."""

        return self.near(self._positions[host_id], radius) - {host_id}

    # -- connectivity -------------------------------------------------------
    def neighbour_sets_and_labels(
        self,
        radius: float,
        speeds: Mapping[str, float] | None = None,
        margin: float = 0.0,
    ) -> tuple[dict[str, frozenset[str]], dict[str, int], Certificate | None]:
        """Every host's neighbour set, component label and stability
        certificate from one sweep over the grid.

        Each host's cell block is scanned once: the members within
        ``radius`` form its neighbour set (exactly :meth:`neighbours_of`),
        and one BFS over those sets labels the components (label values
        are arbitrary; only the partition is meaningful).  With ``speeds``
        (metres per second on each host's current leg) the same scan
        yields the :class:`Certificate` (see the module docstring);
        without them nothing is certified and it is ``None``.
        """

        positions = self._positions
        cells = self._cells
        size = self.cell_size
        reach = math.ceil(radius * _RADIUS_SLOP / size)
        offsets = [
            (dx, dy)
            for dx in range(-reach, reach + 1)
            for dy in range(-reach, reach + 1)
        ]
        certify = speeds is not None
        fastest = max(speeds.values(), default=0.0) if certify else 0.0
        # The cell-edge bound first: pair bounds at or beyond it are not kept.
        edge_bound = math.inf
        if fastest > 0.0:
            for host, point in positions.items():
                x, y = point.x, point.y
                cx, cy = self._cell_of(point)
                edge = min(
                    x - cx * size,
                    (cx + 1) * size - x,
                    y - cy * size,
                    (cy + 1) * size - y,
                )
                bound = (edge - margin) / (speeds[host] + fastest)
                if bound < edge_bound:
                    edge_bound = bound
        pairs: list[tuple[float, str, str, float]] = []
        sqrt = math.sqrt
        neighbour_sets: dict[str, frozenset[str]] = {}
        for host, point in positions.items():
            x, y = point.x, point.y
            cx, cy = self._cell_of(point)
            speed = speeds[host] if certify else 0.0
            found: list[str] = []
            for dx, dy in offsets:
                bucket = cells.get((cx + dx, cy + dy))
                if not bucket:
                    continue
                for other in bucket:
                    if other == host:
                        continue
                    other_point = positions[other]
                    if other_point.distance_to(point) <= radius:
                        found.append(other)
                    if certify and host < other:
                        closing = speed + speeds[other]
                        if closing > 0.0:
                            gx = x - other_point.x
                            gy = y - other_point.y
                            bound = (
                                abs(sqrt(gx * gx + gy * gy) - radius) - margin
                            ) / closing
                            if bound < edge_bound:
                                pairs.append((bound, host, other, closing))
            neighbour_sets[host] = frozenset(found)
        labels: dict[str, int] = {}
        next_label = 0
        for seed in positions:
            if seed in labels:
                continue
            labels[seed] = next_label
            frontier = [seed]
            while frontier:
                for neighbour in neighbour_sets[frontier.pop()]:
                    if neighbour not in labels:
                        labels[neighbour] = next_label
                        frontier.append(neighbour)
            next_label += 1
        certificate = Certificate(edge_bound, pairs) if certify else None
        return neighbour_sets, labels, certificate

    def connected_components(self, radius: float) -> list[frozenset[str]]:
        """Partition the hosts into radio-connectivity components.

        Two hosts are connected when a chain of hops, each at most
        ``radius`` metres, links them.  One sweep over the grid: every
        host's cell block is scanned once and every radio link examined a
        constant number of times.
        """

        members: dict[int, list[str]] = {}
        for host, label in self.component_labels(radius).items():
            members.setdefault(label, []).append(host)
        return [frozenset(component) for component in members.values()]

    def component_labels(self, radius: float) -> dict[str, int]:
        """Map every host to the index of its connectivity component."""

        return self.neighbour_sets_and_labels(radius)[1]

    def is_single_component(self, radius: float) -> bool:
        """True when every indexed host can reach every other via multi-hop."""

        if len(self._positions) <= 1:
            return True
        components = self.connected_components(radius)
        return len(components) == 1

    def __repr__(self) -> str:
        return (
            f"SpatialGridIndex(hosts={len(self._positions)}, "
            f"cells={len(self._cells)}, cell_size={self.cell_size})"
        )

