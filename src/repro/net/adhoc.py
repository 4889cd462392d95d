"""An ad hoc wireless network model (802.11g-like).

Figure 6 of the paper reports the empirical performance of the system on
four laptops connected by an 802.11g ad hoc wireless network.  We do not
have four laptops and a radio; instead this module provides a network model
whose reachability comes from host positions and radio range and whose
per-message latency comes from an 802.11g-like cost model:

    latency = per_hop_overhead + size_bytes / effective_bandwidth   (per hop)

with nominal 802.11g figures (54 Mbit/s raw, roughly 40-50% of that
achievable as application goodput in ad hoc mode) and a per-hop MAC/queueing
overhead on the order of a millisecond or two.  Multi-hop delivery uses the
AODV-style router; the first message over a fresh route additionally pays a
route discovery cost proportional to the hop count, matching AODV's
on-demand behaviour.

The model intentionally keeps the same *shape* of costs as the real medium:
small control messages cost roughly the per-hop overhead while fragment
transfers scale with their payload, so protocol-level trade-offs (how much
know-how a query transfers, number of participants) show up the same way
they do on real hardware.

Scaling architecture
--------------------
All geometry flows through a per-timestamp *snapshot*: the first query at a
simulated instant evaluates the host positions, indexes them in a
:class:`~repro.net.spatial.SpatialGridIndex`, and memoizes neighbour sets
and connectivity components against that snapshot.  Every further query
at the same instant — and the discrete event simulation batches many (a
routing BFS, a broadcast fan-out) at one instant — is a dictionary
lookup.  ``neighbours_of`` is an O(k) grid query, ``in_radio_range`` a
memo lookup, ``is_connected`` one O(V+E) component sweep, and cached
routes and BFS trees hold for as long as the topology generation does.

Event-driven link maintenance makes the *tick boundary* cheap as well.
Instead of discarding the whole snapshot when the clock moves, the
network keeps a heap of ``(next-possible-move time, host)`` entries
derived from the mobility models' current legs (``motion_at``: the
instant itself while moving, the end of the current rest otherwise).
Advancing to a new instant pops only the hosts that may have moved,
re-evaluates just those, relocates them in the grid
(:meth:`~repro.net.spatial.SpatialGridIndex.move` rehashes only on a
cell change), and compares each mover's radio disc before and after:
when no link changed — the overwhelmingly common tick under smooth
mobility — every memoized neighbour set and component label survives, so
the tick costs O(moved hosts) instead of an O(n) rebuild.  When links
did change, only the hosts touching a changed link have their memos
dropped, and the topology generation advances.

Stability horizons make most tick boundaries free.  Under mobility where
most hosts move every tick, the advance above drops every memo (comparing
discs would cost more), so the next reachability query re-runs a
whole-fleet sweep even when no link changed.  The sweep therefore also
returns a *certificate* made of per-pair deadlines: from each host's speed
on its current trajectory leg (``motion_at``), no pair's distance can
change faster than the sum of their speeds, so the link of a cell-block
pair cannot appear or disappear before its own deadline
``anchor + (|d_ij - R| - margin) / (s_i + s_j)``.  Two deadlines cover
the rest: the *cell-edge* deadline, before which no pair outside a block
can come into range, and the *leg-end* deadline, the earliest leg or pause
end (a new leg may be faster).  ``stable_until`` is the earliest of them
all (the horizon of :mod:`repro.net.spatial`), and every instant before it
is answered from the kept neighbour and component memos without advancing
at all: the grid keeps its anchor coordinates, while ``position_of`` and
``positions()`` still evaluate the models at the current instant, so
positions stay exact.

When the horizon runs out at a pair's deadline, mostly nothing has
happened: the worst case assumed both hosts closing head-on at full
speed.  So only the pairs whose deadlines have passed are re-checked, from
fresh ``position_at`` calls, with the exact membership test against the
neighbour memos.  When every such link held, each of those pairs gets a
new deadline from its current distance (the margin taken at the re-check
instant) and ``stable_until`` moves on: no advance, no dropped memo, no
new topology generation and no sweep.  Only a changed link, a passed
cell-edge or leg-end deadline, or a snapshot without a certificate takes
the advance above; on a multi-hop network a certified snapshot then
sweeps at once, so its next expiry is re-checked again.  A host outside
the grid (placed but unregistered, e.g. a crashed relay on a cached route)
is not covered by the certificate; it is answered from current
coordinates and never memoized.  A population with a model lacking
``motion_at`` gets no certificate.

The margin absorbs the float error between the computed distances and the
membership test at later instants.  A replayed position is a few
roundings away from the exact point of its leg line: the elapsed time and
the leg fraction are rounded relative to themselves and a leg spans at
most ``2L`` per axis, so the error is a few ulps of ``L``, the largest
leg-endpoint coordinate.  Each computed distance (the sweep's and the
re-check's ``sqrt(dx*dx + dy*dy)``, the membership ``hypot``) adds a few
ulps of ``L`` and ``R``, and rounding ``t + bound`` can stretch a deadline
by an ulp of the clock ``t``, worth ``s_max * ulp(t)`` metres.  All of it
stays within a few dozen ulps of ``R + L + s_max * t``; the margin is
``2**-32`` times that scale at the instant the deadline is computed,
thousands of times more, so a pair further than the margin from the range
boundary cannot be misjudged before its deadline.  Certificates are made
only where the sweep already runs, so traffic that only advances (a fleet
ticking without reachability queries) never pays for them.

The *topology generation* keys the router's BFS trees and cached routes.
It advances when a snapshot is built and wherever an advance drops the
component labelling (an uncertified dense advance, or a sparse one whose
disc diff is non-empty), never at a skipped or re-checked instant, so
equal generations prove every link among the grid's hosts unchanged;
keyed by it, no tree ever has to be cleared.  The
advance never diffs the links of a host outside the grid, so
:meth:`AdHocWirelessNetwork.generation_of` vouches for none of them.

Vectorized geometry kernels (``vectorized=True``, automatic whenever
NumPy is importable) move the remaining per-host Python loops into array
code: the whole population's trajectory legs live in a contiguous
:class:`~repro.net.kernels.LegTable`, snapshot builds and advances
evaluate every requested position in one batched replay, and the grid is
a :class:`~repro.net.kernels.VectorGridIndex` whose whole-population
disc sweeps come from one vectorized gather.  The kernels run the exact
float operation sequences of the scalar paths (boundary pairs re-checked
with scalar ``math.hypot``), so every neighbour set, component verdict,
and pair deadline is identical bit-for-bit — pinned by the kernel
equivalence property suite.  The few pairs an expiry re-checks take the
same scalar path on both.  NumPy is optional: without it the flag
auto-resolves to ``False`` and the scalar paths below run untouched.

Every answer must equal what fresh ``position_at`` calls at the same
instant imply; the property suites check that against the reference
network in ``tests/reference/network.py``.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Mapping, NamedTuple

from ..core.errors import HostUnreachableError
from ..mobility.geometry import Point
from ..mobility.models import MobilityModel, StaticMobility
from ..sim.events import EventScheduler
from ..sim.randomness import rng_from_seed
from . import kernels
from .messages import Message
from .routing import AodvRouter, RouteNotFound
from .spatial import SpatialGridIndex, padded_cell_size
from .transport import CommunicationsLayer

# 802.11g nominal characteristics.
NOMINAL_80211G_BITRATE = 54_000_000  # bits per second
DEFAULT_GOODPUT_FRACTION = 0.45
DEFAULT_PER_HOP_OVERHEAD = 0.0015  # seconds: MAC contention + protocol stack
DEFAULT_RADIO_RANGE = 100.0  # metres, typical outdoor 802.11g
DEFAULT_ROUTE_DISCOVERY_COST = 0.004  # seconds per hop of RREQ/RREP exchange

#: The stability horizon's margin, relative to the scale of the positions,
#: distances and times it guards (see "Stability horizons" above).
_HORIZON_SLACK = 2.0**-32


def _horizon_margin(radius: float, extent: float, fastest: float, now: float) -> float:
    """The float-error margin of a deadline computed at ``now``."""

    return _HORIZON_SLACK * (radius + extent + fastest * now)

#: How a send reaches its recipient (``AdHocWirelessNetwork._link``).
_LOOPBACK, _DIRECT, _ROUTED = range(3)


def _no_links(host: str) -> frozenset[str]:
    """The neighbours of every host on a detached network."""

    return frozenset()


class _Certificate(NamedTuple):
    """What the last sweep proved, kept so an expiry can renew it.

    ``pairs`` is a heap of ``(deadline, host, other, closing speed)`` over
    the moving block pairs that come due before ``until``, the earlier of
    the cell-edge and leg-end deadlines; ``extent`` and ``fastest`` scale a
    re-check's margin (see "Stability horizons" above).
    """

    pairs: list[tuple[float, str, str, float]]
    until: float
    extent: float
    fastest: float

    def expiry(self) -> float:
        """The earliest deadline: no link changes before it."""

        return min(self.pairs[0][0], self.until) if self.pairs else self.until


class _Snapshot:
    """Everything the network knows about one simulated instant."""

    __slots__ = (
        "time",
        "version",
        "radius",
        "positions",
        "grid",
        "grid_time",
        "stable_until",
        "certificate",
        "neighbours",
        "components",
    )

    def __init__(
        self,
        time: float,
        version: int,
        radius: float,
        positions: dict[str, Point] | kernels.LazyPositions,
        grid: SpatialGridIndex | kernels.VectorGridIndex,
    ) -> None:
        self.time = time
        self.version = version
        self.radius = radius
        self.positions = positions
        self.grid = grid
        # The instant the grid's coordinates describe: behind ``time`` while
        # a stability horizon answers for the instants in between.
        self.grid_time = time
        # No radio link can appear or disappear before this instant.
        self.stable_until = -math.inf
        self.certificate: _Certificate | None = None
        self.neighbours: dict[str, frozenset[str]] = {}
        self.components: dict[str, int] | None = None


class AdHocWirelessNetwork(CommunicationsLayer):
    """Range-limited wireless network with an 802.11g latency model.

    Parameters
    ----------
    scheduler:
        Shared event scheduler (supplies simulated time for positions).
    radio_range:
        Maximum distance (metres) at which two hosts can exchange messages
        directly.
    goodput_fraction:
        Fraction of the nominal 54 Mbit/s usable as application goodput.
    per_hop_overhead:
        Fixed per-hop latency (seconds).
    route_discovery_cost:
        Extra latency charged per hop the first time a route is used (the
        AODV RREQ/RREP exchange).
    jitter:
        Maximum uniform random extra latency per message, drawn from a
        seeded stream.
    multi_hop:
        When false (the paper's Figure 6 setup has all four laptops in
        mutual range), only direct neighbours can communicate.
    vectorized:
        When true, geometry flows through the batched NumPy kernels
        (:mod:`repro.net.kernels`): snapshot builds/advances, disc
        comparisons, and component sweeps are evaluated over the whole
        population per call, with bit-identical results to the scalar
        loops.  ``None`` (the default) resolves to ``True`` exactly when
        NumPy is importable; ``True`` without NumPy raises.  ``False``
        keeps the scalar per-host paths (the reference for the kernel equivalence
        suite, and the only paths exercised when NumPy is absent).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        radio_range: float = DEFAULT_RADIO_RANGE,
        goodput_fraction: float = DEFAULT_GOODPUT_FRACTION,
        per_hop_overhead: float = DEFAULT_PER_HOP_OVERHEAD,
        route_discovery_cost: float = DEFAULT_ROUTE_DISCOVERY_COST,
        jitter: float = 0.0,
        multi_hop: bool = True,
        seed: int = 0,
        vectorized: bool | None = None,
    ) -> None:
        super().__init__(scheduler)
        if radio_range <= 0:
            raise ValueError("radio range must be positive")
        if not 0 < goodput_fraction <= 1:
            raise ValueError("goodput fraction must be in (0, 1]")
        self.radio_range = radio_range
        self.bytes_per_second = NOMINAL_80211G_BITRATE * goodput_fraction / 8.0
        self.per_hop_overhead = per_hop_overhead
        self.route_discovery_cost = route_discovery_cost
        self.jitter = jitter
        self.multi_hop = multi_hop
        if vectorized is None:
            vectorized = kernels.numpy_available()
        elif vectorized:
            kernels.require_numpy()
        self.vectorized = bool(vectorized)
        self._rng = rng_from_seed(seed)
        self._mobility: dict[str, MobilityModel] = {}
        # Vectorized mode: the population's trajectory legs in contiguous
        # arrays, rebuilt whenever membership or placements change.
        self._leg_table: kernels.LegTable | None = None
        self._leg_hosts: list[str] = []
        self._leg_table_version = -1
        self._snapshot: _Snapshot | None = None
        self._version = 0  # bumped on membership / placement changes
        # Event-driven maintenance: (next-possible-move time, host) entries.
        # A host paused until T (or static: never in the heap at all) is not
        # touched by any snapshot advance before T.
        self._move_heap: list[tuple[float, str]] = []
        self.snapshots_built = 0  # snapshots established (rebuilt or advanced)
        self.grid_rebuilds = 0  # full O(n) rebuilds among them
        self.hosts_reevaluated = 0  # mobility evaluations during advances
        self.hosts_moved = 0  # position changes applied incrementally
        self.advances_skipped = 0  # instants answered inside a stability horizon
        self.pairs_rechecked = 0  # certified pairs re-checked at an expiry
        # Advanced wherever a radio link may have appeared or disappeared.
        self.topology_generation = 0
        self._router = AodvRouter(self.neighbours_of, generation_of=self.generation_of)

    # -- membership with positions -------------------------------------------
    def register(self, host_id: str, handler) -> None:  # type: ignore[override]
        super().register(host_id, handler)
        self._version += 1

    def unregister(self, host_id: str) -> None:
        super().unregister(host_id)
        self._version += 1

    def detach_all(self) -> None:
        super().detach_all()
        self._version += 1
        # The router calls back into this network through bound methods;
        # one that knows no links refers to nothing.
        self._router = AodvRouter(_no_links)

    def place_host(self, host_id: str, mobility: MobilityModel | Point) -> None:
        """Attach a mobility model (or a fixed position) to a registered host."""

        if isinstance(mobility, Point):
            mobility = StaticMobility(mobility)
        self._mobility[host_id] = mobility
        self._version += 1

    def _position_at(self, host_id: str, time: float) -> Point:
        mobility = self._mobility.get(host_id)
        if mobility is None:
            return Point(0.0, 0.0)
        return mobility.position_at(time)

    def _current_snapshot(self) -> _Snapshot:
        now = self.scheduler.clock.now()
        snapshot = self._snapshot
        if snapshot is not None and snapshot.version == self._version:
            if snapshot.time == now:
                return snapshot
            # Geometry memos only carry across ticks while the radio range
            # they were computed for still holds.
            if now > snapshot.time and snapshot.radius == self.radio_range:
                if now < snapshot.stable_until or self._recheck(snapshot, now):
                    # Certified (or renewed by re-checking the due pairs): no
                    # link has changed, so the memos answer for `now` and the
                    # grid may lag behind.
                    snapshot.time = now
                    self.advances_skipped += 1
                else:
                    certified = snapshot.certificate is not None
                    snapshot.certificate = None
                    self._advance_snapshot(snapshot, now, certified=False)
                    if certified:
                        # Certify the new links at once (only a multi-hop
                        # network sweeps, so only it had a certificate), and
                        # the next expiry is re-checked rather than advanced.
                        self._sweep(snapshot)
                self.snapshots_built += 1
                return snapshot
        if self.vectorized:
            snapshot = self._build_snapshot_vectorized(now)
        else:
            positions = {
                host: self._position_at(host, now) for host in sorted(self.host_ids)
            }
            # padded_cell_size keeps range queries on the 3x3 cell block
            # while covering float-rounding slop at exact-radius distances.
            grid = SpatialGridIndex(
                positions, cell_size=padded_cell_size(self.radio_range)
            )
            snapshot = _Snapshot(
                now, self._version, self.radio_range, positions, grid
            )
        self._snapshot = snapshot
        self.snapshots_built += 1
        self.grid_rebuilds += 1
        self.topology_generation += 1
        self._rebuild_move_heap(now)
        return snapshot

    # -- vectorized geometry ------------------------------------------------
    def _current_leg_table(self) -> tuple[list[str], kernels.LegTable]:
        """The population's leg arrays, rebuilt on membership/placement
        changes (re-fetching rows is the only cost of a rebuild)."""

        if self._leg_table is None or self._leg_table_version != self._version:
            self._leg_hosts = sorted(self.host_ids)
            self._leg_table = kernels.LegTable(
                [self._mobility.get(host) for host in self._leg_hosts]
            )
            self._leg_table_version = self._version
        return self._leg_hosts, self._leg_table

    def _build_snapshot_vectorized(self, now: float) -> _Snapshot:
        """One batched leg replay instead of n ``position_at`` calls."""

        hosts, table = self._current_leg_table()
        xs, ys = table.positions_at(now)
        grid = kernels.VectorGridIndex(
            hosts, xs, ys, padded_cell_size(self.radio_range)
        )
        # Positions stay in the grid's arrays; the lazy view builds Points
        # only when somebody actually asks for one.
        return _Snapshot(
            now, self._version, self.radio_range, kernels.LazyPositions(grid), grid
        )

    # -- event-driven maintenance -------------------------------------------
    def _next_move_time(self, host_id: str, time: float) -> float:
        """When ``host_id`` may next change position (``inf`` = never).

        Derived from the mobility model's current leg, by the rule
        :meth:`repro.net.kernels.LegTable.next_move_times` applies to whole
        populations: ``time`` itself while moving, the end of the current
        rest otherwise.  A model without ``motion_at`` is conservatively
        treated as always moving.
        """

        mobility = self._mobility.get(host_id)
        if mobility is None:
            return math.inf  # never placed: pinned at the origin
        fetch = getattr(mobility, "motion_at", None)
        if fetch is None:
            return time
        valid_until, _, _, _, speed = fetch(time)
        return time if speed != 0.0 and time < valid_until else valid_until

    def _rebuild_move_heap(self, now: float) -> None:
        if self.vectorized:
            hosts, table = self._current_leg_table()
            np = kernels.np
            move_times = table.next_move_times(now, np.arange(len(hosts)))
            heap = []
            for host, move_time in zip(hosts, move_times.tolist()):
                if math.isnan(move_time):  # opaque model: ask it directly
                    move_time = self._next_move_time(host, now)
                if move_time < math.inf:
                    heap.append((move_time, host))
        else:
            heap = [
                (move_time, host)
                for host in self.host_ids
                if (move_time := self._next_move_time(host, now)) < math.inf
            ]
        heapq.heapify(heap)
        self._move_heap = heap

    def _recheck(self, snapshot: _Snapshot, now: float) -> bool:
        """Renew the certificate at its expiry ``now``, if no link changed.

        Only the pairs whose deadlines have passed are re-evaluated, from
        fresh ``position_at`` calls, and each link is checked against the
        neighbour memos with the exact membership test.  When all of them
        held, each gets a new deadline from its current distance, with the
        margin taken at ``now``, and ``stable_until`` moves to the new
        earliest deadline.  False, renewing nothing, when a link changed,
        the cell-edge or leg-end deadline has passed, or nothing is
        certified.
        """

        certificate = snapshot.certificate
        if certificate is None or now >= certificate.until:
            return False
        radius = self.radio_range
        margin = _horizon_margin(radius, certificate.extent, certificate.fastest, now)
        heap = certificate.pairs
        renewed = []
        while heap and heap[0][0] <= now:
            _, host, other, closing = heapq.heappop(heap)
            self.pairs_rechecked += 1
            a = self._position_at(host, now)
            b = self._position_at(other, now)
            if (a.distance_to(b) <= radius) != (other in snapshot.neighbours[host]):
                return False
            dx = a.x - b.x
            dy = a.y - b.y
            # The sweep's bound, in the sweep's float operations.
            bound = (abs(math.sqrt(dx * dx + dy * dy) - radius) - margin) / closing
            deadline = now + bound
            if deadline < certificate.until:
                renewed.append((deadline, host, other, closing))
        for entry in renewed:
            heapq.heappush(heap, entry)
        snapshot.stable_until = certificate.expiry()
        return True

    def _advance_snapshot(
        self, snapshot: _Snapshot, now: float, certified: bool
    ) -> None:
        """Carry the snapshot forward to ``now``, touching only movable hosts.

        Hosts whose next-possible-move time lies beyond ``now`` are provably
        where they were — their positions and neighbour memos carry over
        untouched.  The hosts popped off the heap are re-evaluated; the
        ones that actually moved are relocated in the grid and their radio
        discs compared before/after.  Memos are dropped only for hosts
        incident to a link that appeared or disappeared, and the component
        labelling (advancing the topology generation) only when at least
        one such link exists.  When ``certified`` (the memos are known to
        hold at ``now``), the moves are applied without any comparison and
        every memo survives.
        """

        if self.vectorized:
            self._advance_snapshot_vectorized(snapshot, now, certified)
            return
        snapshot.time = snapshot.grid_time = now
        heap = self._move_heap
        if not heap or heap[0][0] >= now:
            return
        moved: list[tuple[str, Point]] = []
        while heap and heap[0][0] < now:
            _, host = heapq.heappop(heap)
            old = snapshot.positions.get(host)
            if old is None:
                continue  # stale entry from before a membership change
            self.hosts_reevaluated += 1
            new = self._position_at(host, now)
            next_time = self._next_move_time(host, now)
            if next_time < math.inf:
                heapq.heappush(heap, (next_time, host))
            if new != old:
                moved.append((host, new))
        if not moved:
            return
        self.hosts_moved += len(moved)
        grid = snapshot.grid
        if certified or len(moved) * 4 >= len(snapshot.positions):
            # Certified: no link changed, every memo survives.  Otherwise
            # most of the population moved: comparing every mover's radio
            # disc would cost more than the lazy recomputation it tries to
            # save.  Apply the moves (still O(moved) grid work, no O(n)
            # rebuild) and drop the geometry memos wholesale — queries then
            # recompute lazily, exactly as after a snapshot build.
            for host, new in moved:
                snapshot.positions[host] = new
                grid.move(host, new)
            if not certified:
                snapshot.neighbours.clear()
                snapshot.components = None
                self.topology_generation += 1
            return
        radius = self.radio_range
        # Radio discs on the *old* positions (of every host) first, then
        # apply all moves, then discs on the new positions: the symmetric
        # differences are exactly the links that changed across the tick.
        old_discs = [grid.near(snapshot.positions[host], radius) for host, _ in moved]
        for host, new in moved:
            snapshot.positions[host] = new
            grid.move(host, new)
        changed: set[str] = set()
        for (host, new), old_disc in zip(moved, old_discs):
            delta = grid.near(new, radius) ^ old_disc
            if delta:
                changed.add(host)
                changed |= delta
        if not changed:
            return  # every mover kept its exact link set: all memos survive
        snapshot.components = None
        self.topology_generation += 1
        for host in changed:
            snapshot.neighbours.pop(host, None)

    def _advance_snapshot_vectorized(
        self, snapshot: _Snapshot, now: float, certified: bool
    ) -> None:
        """The same advance, with every per-host loop batched: one leg
        replay for all popped hosts, one grid relocation, and the changed
        link set from a single symmetric difference over encoded disc
        pairs — exactly the scalar path's before/after-disc comparison.
        """

        snapshot.time = snapshot.grid_time = now
        heap = self._move_heap
        if not heap or heap[0][0] >= now:
            return
        grid: kernels.VectorGridIndex = snapshot.grid
        # Drain the due entries.  Sparse ticks (a few movers out of the
        # fleet) pop normally; once the tick proves dense the remaining due
        # entries are split off in one partition pass and the survivors
        # re-heapified — O(n) list work instead of O(n log n) sifts.
        popped: list[str] = []
        while heap and heap[0][0] < now:
            _, host = heapq.heappop(heap)
            if host in grid:  # else: stale pre-membership entry
                popped.append(host)
            if len(popped) >= 32 and heap and heap[0][0] < now:
                due = [entry[1] for entry in heap if entry[0] < now]
                heap[:] = [entry for entry in heap if entry[0] >= now]
                heapq.heapify(heap)
                popped.extend(host for host in due if host in grid)
                break
        if not popped:
            return
        self.hosts_reevaluated += len(popped)
        np = kernels.np
        _, table = self._current_leg_table()
        if len(popped) == len(grid):
            # The whole fleet is due (every heap entry is per-host unique):
            # take the rows in grid order and skip the id -> index lookups.
            popped = list(grid.ids)
            indices = np.arange(len(popped), dtype=np.intp)
        else:
            indices = np.fromiter(
                (grid.index_of(host) for host in popped),
                dtype=np.intp,
                count=len(popped),
            )
        new_xs, new_ys = table.positions_at(now, indices)
        move_times = table.next_move_times(now, indices)
        nan_mask = np.isnan(move_times)
        if nan_mask.any():  # opaque models: ask them directly
            move_times = move_times.copy()
            for row in np.nonzero(nan_mask)[0].tolist():
                move_times[row] = self._next_move_time(popped[row], now)
        finite = move_times < math.inf
        if finite.all():
            refills = list(zip(move_times.tolist(), popped))
        else:
            times = move_times.tolist()
            refills = [(times[row], popped[row]) for row in np.nonzero(finite)[0].tolist()]
        if len(refills) * 4 >= len(heap):
            heap.extend(refills)
            heapq.heapify(heap)
        else:
            for entry in refills:
                heapq.heappush(heap, entry)
        moved_mask = (new_xs != grid.xs[indices]) | (new_ys != grid.ys[indices])
        if not moved_mask.any():
            return
        moved_indices = indices[moved_mask]
        moved_xs = new_xs[moved_mask]
        moved_ys = new_ys[moved_mask]
        self.hosts_moved += len(moved_indices)
        ids = grid.ids
        radius = self.radio_range
        if certified or len(moved_indices) * 4 >= len(snapshot.positions):
            # Same branches as the scalar path: certified moves keep every
            # memo; otherwise most of the population moved, so drop the
            # memos wholesale instead of diffing discs.  The lazy position
            # view tracks the grid arrays by itself.
            grid.move_many(moved_indices, moved_xs, moved_ys)
            if not certified:
                snapshot.neighbours.clear()
                snapshot.components = None
                self.topology_generation += 1
            return
        # Discs around the movers' old positions, then the new ones; encode
        # each (mover, member) pair as one integer so the links that changed
        # across the tick fall out of a single set symmetric difference.
        old_queries, old_members = grid.disc_pairs(moved_indices, radius)
        grid.move_many(moved_indices, moved_xs, moved_ys)
        new_queries, new_members = grid.disc_pairs(moved_indices, radius)
        size = len(grid)
        changed_codes = np.setxor1d(
            moved_indices[old_queries] * size + old_members,
            moved_indices[new_queries] * size + new_members,
        )
        if not changed_codes.size:
            return  # every mover kept its exact link set: all memos survive
        snapshot.components = None
        self.topology_generation += 1
        changed = np.unique(
            np.concatenate([changed_codes // size, changed_codes % size])
        )
        for index in changed.tolist():
            snapshot.neighbours.pop(ids[index], None)

    def position_of(self, host_id: str) -> Point:
        """Current position of ``host_id`` (origin when never placed)."""

        snapshot = self._current_snapshot()
        if snapshot.grid_time == snapshot.time:
            position = snapshot.positions.get(host_id)
            if position is not None:
                return position
        # Placed but not (or no longer) registered, or a grid lagging inside
        # a stability horizon: ask the mobility model directly.
        return self._position_at(host_id, snapshot.time)

    def positions(self) -> Mapping[str, Point]:
        """Snapshot of every attached host's current position (one evaluation
        of each mobility model per simulated instant, shared by all queries)."""

        snapshot = self._current_snapshot()
        self._settle(snapshot)
        return dict(snapshot.positions)

    def _settle(self, snapshot: _Snapshot) -> None:
        """Bring a grid lagging inside a stability horizon up to the
        snapshot's instant (the advance keeps every memo there)."""

        if snapshot.grid_time != snapshot.time:
            self._advance_snapshot(snapshot, snapshot.time, certified=True)

    # -- connectivity -------------------------------------------------------------
    def in_radio_range(self, host_a: str, host_b: str) -> bool:
        """True when the two hosts can currently exchange frames directly
        (from ``host_a``'s neighbour memo when ``host_b`` is on the grid)."""

        if host_a == host_b:
            return True
        snapshot = self._current_snapshot()
        neighbours = snapshot.neighbours.get(host_a)
        if neighbours is not None and host_b in snapshot.grid:
            return host_b in neighbours
        distance = self.position_of(host_a).distance_to(self.position_of(host_b))
        return distance <= self.radio_range

    def neighbours_of(self, host_id: str) -> frozenset[str]:
        """Hosts currently within direct radio range of ``host_id``.

        O(k) in the local host density via the grid snapshot; memoized per
        instant.
        """

        snapshot = self._current_snapshot()
        cached = snapshot.neighbours.get(host_id)
        if cached is not None:
            return cached
        if host_id not in snapshot.grid:
            # Placed but not registered (e.g. a crashed relay on a cached
            # route): neither the advance's link diff nor a stability
            # horizon covers it, so answer from current coordinates and
            # keep no memo.
            self._settle(snapshot)
            position = self._position_at(host_id, snapshot.time)
            return snapshot.grid.near(position, self.radio_range) - {host_id}
        # A grid lagging inside a stability horizon still gives the right
        # answer: no registered host's link set has changed.
        neighbours = snapshot.grid.neighbours_of(host_id, self.radio_range)
        snapshot.neighbours[host_id] = neighbours
        return neighbours

    def generation_of(self, hosts: Iterable[str]) -> int | None:
        """The topology generation, or ``None`` when a host is off the grid."""

        grid = self._current_snapshot().grid
        for host in hosts:
            if host not in grid:
                return None
        return self.topology_generation

    def _component_labels(self) -> dict[str, int]:
        snapshot = self._current_snapshot()
        if snapshot.components is None:
            self._sweep(snapshot)
        return snapshot.components

    def _sweep(self, snapshot: _Snapshot) -> None:
        """One whole-population disc sweep: every neighbour set, the
        component partition and the certificate.

        Called only where the grid is at the snapshot's instant: after a
        rebuild or an uncertified advance, the only places that drop the
        component labelling.  The per-host memos are warmed as a side
        effect (the sets are exactly what the per-host queries would
        compute).
        """

        now = snapshot.time
        motion = self._motion_bounds(now)
        speeds, margin = None, 0.0
        if motion is not None:
            speeds, fastest, leg_end, extent = motion
            margin = _horizon_margin(self.radio_range, extent, fastest, now)
        neighbour_sets, labels, proof = snapshot.grid.neighbour_sets_and_labels(
            self.radio_range, speeds, margin
        )
        for host, neighbours in neighbour_sets.items():
            snapshot.neighbours.setdefault(host, neighbours)
        snapshot.components = labels
        if motion is not None:
            until = min(now + proof.edge, leg_end)
            pairs = [
                (deadline, host, other, closing)
                for bound, host, other, closing in proof.pairs
                if (deadline := now + bound) < until
            ]
            heapq.heapify(pairs)
            snapshot.certificate = _Certificate(pairs, until, extent, fastest)
            snapshot.stable_until = snapshot.certificate.expiry()

    def _motion_bounds(self, now: float) -> tuple | None:
        """``(speeds, fastest, leg_end, extent)`` of the registered hosts'
        current legs, as :meth:`repro.net.kernels.LegTable.motion_bounds`
        reports them; ``None`` when a model without ``motion_at`` makes the
        motion unknowable (such a population never gets a horizon)."""

        if self.vectorized:
            return self._current_leg_table()[1].motion_bounds(now)
        speeds: dict[str, float] = {}
        leg_end = math.inf
        extent = 0.0
        for host in self.host_ids:
            mobility = self._mobility.get(host)
            if mobility is None:
                speeds[host] = 0.0  # never placed: pinned at the origin
                continue
            fetch = getattr(mobility, "motion_at", None)
            if fetch is None:
                return None
            valid_until, _, origin, destination, speed = fetch(now)
            speeds[host] = speed
            leg_end = min(leg_end, valid_until)
            extent = max(
                extent, abs(origin.x), abs(origin.y), abs(destination.x), abs(destination.y)
            )
        return speeds, max(speeds.values(), default=0.0), leg_end, extent

    def is_reachable(self, sender: str, recipient: str) -> bool:
        return self._link(sender, recipient) is not None

    def _link(self, sender: str, recipient: str) -> int | None:
        """Loopback, direct, routed (same component) or ``None``: unreachable."""

        if sender == recipient:
            return _LOOPBACK
        if self.in_radio_range(sender, recipient):
            return _DIRECT
        if not self.multi_hop:
            return None
        labels = self._component_labels()
        sender_label = labels.get(sender)
        same = sender_label is not None and sender_label == labels.get(recipient)
        return _ROUTED if same else None

    def is_connected(self) -> bool:
        """True when every pair of attached hosts can currently communicate.

        A single connected-components sweep (multi-hop) or a neighbour-count
        check (single-hop, where "connected" means every pair is in direct
        range).
        """

        hosts = self.host_ids
        if len(hosts) <= 1:
            return True
        if not self.multi_hop:
            # Single-hop "connected" = complete radio graph.  Early-exits on
            # the first host missing a neighbour.
            expected = len(hosts) - 1
            return all(len(self.neighbours_of(host)) == expected for host in hosts)
        # Answer from the memoized component labelling: one BFS per snapshot,
        # shared with is_reachable — and, under event-driven maintenance,
        # carried across ticks in which no link changed.
        labels = self._component_labels()
        return len(set(labels.values())) <= 1

    # -- latency --------------------------------------------------------------------
    def latency_for(self, message: Message) -> float:
        return self._latency(message, self._link(message.sender, message.recipient))

    def _latency(self, message: Message, link: int | None) -> float:
        if link is None:
            raise HostUnreachableError(
                f"{message.recipient!r} is not reachable from {message.sender!r}"
            )
        if link == _LOOPBACK:
            # Local delivery never touches the radio: free, and — just as
            # important for reproducibility — no draw from the seeded jitter
            # stream, so loopback traffic cannot perturb the latency
            # sequence observed by real transmissions.
            return 0.0
        hops, fresh_route = 1, False
        if link == _ROUTED:
            try:
                route, cached = self._router.lookup(message.sender, message.recipient)
            except RouteNotFound as exc:
                raise HostUnreachableError(str(exc)) from exc
            hops, fresh_route = route.hop_count, not cached
        per_hop = self.per_hop_overhead + message.size_bytes() / self.bytes_per_second
        latency = hops * per_hop
        if fresh_route and hops > 1:
            latency += self.route_discovery_cost * hops
        if self.jitter > 0:
            latency += self._rng.uniform(0.0, self.jitter)
        return latency

    @property
    def router(self) -> AodvRouter:
        return self._router

    def __repr__(self) -> str:
        return (
            f"AdHocWirelessNetwork(hosts={len(self.host_ids)}, "
            f"range={self.radio_range}m, goodput={self.bytes_per_second / 1e6:.1f} MB/s)"
        )
