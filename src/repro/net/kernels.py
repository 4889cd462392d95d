"""Array-oriented geometry kernels for the wireless substrate (NumPy).

The scalar geometry plane answers every question host-by-host: the snapshot
advance evaluates one mobility model at a time and a neighbour sweep runs
one ``near`` query per host.  Each answer is cheap, but at fleet scale
(1000+ movers) the interpreter overhead of the per-host loop dominates the
arithmetic.

This module holds the whole mover set's leg parameters in contiguous NumPy
arrays and evaluates positions and pairwise radio-disc membership as
*batched kernels over the entire population in one call*:

* :class:`LegTable` — per-host ``(start, origin, destination, speed,
  valid_until)`` rows fetched from the mobility models'
  ``motion_at`` (see :class:`~repro.mobility.models.MobilityModel`) and
  replayed vectorized.  The replay performs *exactly* the float operations
  of ``Point.moved_towards`` — same products, same quotient, same sums —
  so batched positions are bit-identical to the scalar path.
* :class:`VectorGridIndex` — the array mirror of
  :class:`~repro.net.spatial.SpatialGridIndex`: hosts bucketed by the same
  floor-quantised cells (candidate pairs still come from the 3×3 cell
  blocks), with whole-population disc sweeps built by vectorized
  gather/expand instead of per-host scans.  The sweep also returns the
  stability certificate of :mod:`repro.net.spatial` from the same block
  pairs, with the scalar sweep's float operations (``sqrt(dx*dx + dy*dy)``,
  not ``hypot``, whose NumPy and ``math`` versions may round differently),
  so both paths certify the same pair bounds to the bit.

Exact boundary semantics.  The scalar membership test is
``math.hypot(dx, dy) <= radius`` with a correctly-rounded hypot; a naive
vectorized squared-distance comparison can disagree at the boundary (the
PR-3 regression: a pair whose exact separation exceeds the radius by
~1e-158 still rounds to distance == radius).  The kernels therefore
compare squared distances only *outside* a generous relative band around
``radius²`` (the band is ~1e-12 wide, thousands of times the worst-case
rounding of the squared form) and re-check the handful of borderline pairs
with scalar ``math.hypot`` — vectorized throughput with scalar-exact
verdicts, pinned by the kernel↔scalar property suite.

NumPy is an *optional* dependency, imported by the first
:func:`numpy_available` or :func:`require_numpy` call rather than with this
module, so a process that never builds an ad hoc network never loads it.
Without it :func:`numpy_available` is false and every scalar path runs
untouched (the network layer auto-falls back, and CI runs a no-NumPy leg to
keep it that way).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Sequence

from ..mobility.geometry import Point
from .spatial import _RADIUS_SLOP, Certificate

#: ``np`` before the first :func:`numpy_available` call; after it, ``np`` is
#: the ``numpy`` module, or ``None`` when NumPy cannot be imported.
_UNLOADED = object()
np = _UNLOADED


def numpy_available() -> bool:
    """True when NumPy imports and the vectorized kernels can run."""

    global np
    if np is _UNLOADED:
        try:  # pragma: no cover - exercised via both CI legs
            import numpy
        except ImportError:  # pragma: no cover
            numpy = None
        np = numpy
    return np is not None


def require_numpy() -> None:
    if not numpy_available():
        raise RuntimeError(
            "the vectorized geometry kernels require NumPy; install it or "
            "run with vectorized=False"
        )


#: Relative half-width of the squared-distance band inside which a pair is
#: re-checked with scalar ``math.hypot``.  ``dx*dx + dy*dy`` carries at most
#: ~3 ulp (~7e-16) of relative rounding, so a 1e-12 band decides every pair
#: outside it with certainty and routes only true boundary cases (exact
#: separation within ~5e-13 of the radius) through the scalar tie-break.
_BOUNDARY_BAND = 1e-12

#: Cell codes pack ``(cell_x, cell_y)`` into one int64 as ``x * 2**32 + y``.
#: Cells beyond ±2**31 are clamped first; clamping is a monotone map applied
#: identically to bucket and query cells, so it can only *merge* distant
#: cells (a superset of candidates — the exact distance test still decides
#: membership), never hide a reachable one.
_CODE_BASE = 2**32
_CELL_LIMIT = 2**31 - 2


def _within_radius(dx, dy, radius: float, d2=None):
    """Element-wise exact ``math.hypot(dx, dy) <= radius`` over arrays
    (``d2``: ``dx * dx + dy * dy`` when the caller already has it)."""

    if d2 is None:
        d2 = dx * dx + dy * dy
    r2 = radius * radius
    lo = r2 * (1.0 - _BOUNDARY_BAND)
    hi = r2 * (1.0 + _BOUNDARY_BAND)
    inside = d2 <= lo
    border = np.nonzero((d2 > lo) & (d2 <= hi))[0]
    if border.size:
        for position in border.tolist():
            inside[position] = math.hypot(dx[position], dy[position]) <= radius
    return inside


class LegTable:
    """Contiguous leg parameters for an index-aligned host population.

    Row ``i`` describes host ``i``'s current trajectory segment as fetched
    from its mobility model's ``motion_at``; hosts whose model lacks the
    method (or that were never placed: pinned at the origin) are *opaque*
    and evaluated through the scalar ``position_at`` inside the batched
    call.  Rows refresh lazily: a batched evaluation at time ``t`` first
    re-fetches the (typically few) rows whose validity expired, then
    replays every requested row in one vectorized pass.
    """

    def __init__(self, models: Sequence[object | None]) -> None:
        require_numpy()
        size = len(models)
        self._models = list(models)
        self._fetchers = [getattr(model, "motion_at", None) for model in models]
        self.start = np.zeros(size)
        self.origin_x = np.zeros(size)
        self.origin_y = np.zeros(size)
        self.dest_x = np.zeros(size)
        self.dest_y = np.zeros(size)
        self.speed = np.zeros(size)
        self.total = np.zeros(size)  # origin→destination distance (hypot)
        self.valid_until = np.full(size, -math.inf)  # force first fetch
        self.fetched_at = np.full(size, -math.inf)
        self.opaque = np.array(
            [model is not None and fetcher is None
             for model, fetcher in zip(models, self._fetchers)],
            dtype=bool,
        )
        for index, model in enumerate(models):
            if model is None:
                # Never placed: the network pins such hosts at the origin.
                self.valid_until[index] = math.inf
                self.fetched_at[index] = 0.0

    def __len__(self) -> int:
        return len(self._models)

    def _refresh_stale(self, time: float, indices) -> None:
        # A row fetched at `time` is valid *at* `time` even when its
        # validity boundary equals `time` (motion_at's contract), so only
        # rows fetched strictly earlier are stale.
        stale = np.nonzero(
            (self.valid_until[indices] <= time) & (self.fetched_at[indices] < time)
        )[0]
        if not stale.size:
            return
        # Fetch the fresh rows into plain lists, then write each column in
        # one fancy-indexed assignment — bulk stores instead of eight
        # per-row scalar array writes.
        rows: list[int] = []
        columns: tuple[list[float], ...] = ([], [], [], [], [], [], [], [])
        starts, origin_xs, origin_ys, dest_xs, dest_ys, speeds, totals, until = columns
        hypot = math.hypot
        for position in stale.tolist():
            index = int(indices[position])
            if self.opaque[index] or self._models[index] is None:
                continue
            valid_until, start, origin, destination, speed = self._fetchers[index](time)
            rows.append(index)
            starts.append(start)
            origin_xs.append(origin.x)
            origin_ys.append(origin.y)
            dest_xs.append(destination.x)
            dest_ys.append(destination.y)
            speeds.append(speed)
            # Exactly the `total` that Point.moved_towards computes.
            totals.append(hypot(origin.x - destination.x, origin.y - destination.y))
            until.append(valid_until)
        if not rows:
            return
        self.start[rows] = starts
        self.origin_x[rows] = origin_xs
        self.origin_y[rows] = origin_ys
        self.dest_x[rows] = dest_xs
        self.dest_y[rows] = dest_ys
        self.speed[rows] = speeds
        self.total[rows] = totals
        self.valid_until[rows] = until
        self.fetched_at[rows] = time

    def positions_at(self, time: float, indices=None):
        """``(xs, ys)`` of the requested hosts at ``time`` (all by default).

        Bit-identical to calling each model's scalar ``position_at``: the
        replay runs the exact operation sequence of ``moved_towards`` on
        the fetched leg parameters.
        """

        if indices is None:
            indices = np.arange(len(self._models))
        else:
            indices = np.asarray(indices, dtype=np.intp)
        self._refresh_stale(time, indices)
        travelled = (time - self.start[indices]) * self.speed[indices]
        total = self.total[indices]
        dest_x = self.dest_x[indices]
        dest_y = self.dest_y[indices]
        at_destination = (total == 0.0) | (travelled >= total)
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = travelled / total
        origin_x = self.origin_x[indices]
        origin_y = self.origin_y[indices]
        with np.errstate(invalid="ignore"):
            xs = np.where(
                at_destination, dest_x, origin_x + (dest_x - origin_x) * fraction
            )
            ys = np.where(
                at_destination, dest_y, origin_y + (dest_y - origin_y) * fraction
            )
        opaque = np.nonzero(self.opaque[indices])[0]
        for position in opaque.tolist():
            point = self._models[int(indices[position])].position_at(time)
            xs[position] = point.x
            ys[position] = point.y
        return xs, ys

    def next_move_times(self, time: float, indices):
        """When each host may next change position: ``time`` itself mid-leg,
        the current rest segment's end otherwise (the scalar network derives
        the same value from one ``motion_at`` call).  Opaque rows report
        ``nan`` and must be resolved through the model by the caller.
        """

        indices = np.asarray(indices, dtype=np.intp)
        self._refresh_stale(time, indices)
        moving = (self.speed[indices] != 0.0) & (time < self.valid_until[indices])
        times = np.where(moving, time, self.valid_until[indices])
        if self.opaque.any():
            times = np.where(self.opaque[indices], math.nan, times)
        return times

    def motion_bounds(self, time: float):
        """``(speeds, fastest, leg_end, extent)`` over every row's leg at
        ``time``: the per-row speeds and their maximum, the earliest leg
        end, and the largest absolute leg-endpoint coordinate — or ``None``
        when an opaque row makes the population's motion unknowable."""

        if self.opaque.any():
            return None
        if not len(self._models):
            return self.speed, 0.0, math.inf, 0.0
        self._refresh_stale(time, np.arange(len(self._models)))
        extent = max(
            float(np.abs(column).max())
            for column in (self.origin_x, self.origin_y, self.dest_x, self.dest_y)
        )
        return (
            self.speed,
            float(self.speed.max()),
            float(self.valid_until.min()),
            extent,
        )


class VectorGridIndex:
    """Array mirror of :class:`~repro.net.spatial.SpatialGridIndex`.

    Same uniform floor-quantised cells, same padded scan range, same
    inclusive-radius membership — but positions live in contiguous arrays,
    buckets are a single argsort, and whole-population disc sweeps are one
    vectorized gather instead of n Python loops.  Single-host queries
    (``near`` / ``neighbours_of``) answer through the identical exact test,
    so the two index types are interchangeable behind
    ``AdHocWirelessNetwork``'s snapshot.
    """

    def __init__(self, ids: Sequence[str], xs, ys, cell_size: float) -> None:
        require_numpy()
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = float(cell_size)
        self.ids = tuple(ids)
        self._index = {host: i for i, host in enumerate(self.ids)}
        self._ids_array = np.array(self.ids, dtype=object)  # O(1) index→id gathers
        self.xs = np.ascontiguousarray(xs, dtype=float)
        self.ys = np.ascontiguousarray(ys, dtype=float)
        self._rebuild_buckets()

    # -- basic views --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, host_id: str) -> bool:
        return host_id in self._index

    @property
    def hosts(self) -> frozenset[str]:
        return frozenset(self.ids)

    def index_of(self, host_id: str) -> int:
        return self._index[host_id]

    def position_of(self, host_id: str) -> Point:
        index = self._index[host_id]
        return Point(float(self.xs[index]), float(self.ys[index]))

    # -- bucket maintenance -------------------------------------------------
    def _rebuild_buckets(self) -> None:
        with np.errstate(invalid="ignore"):
            cell_x = np.clip(
                np.floor_divide(self.xs, self.cell_size), -_CELL_LIMIT, _CELL_LIMIT
            )
            cell_y = np.clip(
                np.floor_divide(self.ys, self.cell_size), -_CELL_LIMIT, _CELL_LIMIT
            )
        self._cell_x = cell_x.astype(np.int64)
        self._cell_y = cell_y.astype(np.int64)
        self._codes = self._cell_x * _CODE_BASE + self._cell_y
        self._order = np.argsort(self._codes, kind="stable")
        sorted_codes = self._codes[self._order]
        self._cell_codes, self._cell_starts = np.unique(
            sorted_codes, return_index=True
        )
        self._cell_counts = np.diff(
            np.append(self._cell_starts, len(sorted_codes))
        )

    def move_many(self, indices, xs, ys) -> None:
        """Relocate a batch of hosts and re-bucket in one vectorized pass."""

        self.xs[indices] = xs
        self.ys[indices] = ys
        self._rebuild_buckets()

    # -- candidate gathering ------------------------------------------------
    def _reach(self, radius: float) -> int:
        # Same padded scan range as SpatialGridIndex.near.
        return math.ceil(radius * _RADIUS_SLOP / self.cell_size)

    def _bucket_lookup(self, codes):
        """``(starts, counts)`` of the buckets holding each queried code."""

        if not len(self._cell_codes):
            zeros = np.zeros(len(codes), dtype=np.int64)
            return zeros, zeros
        locations = np.searchsorted(self._cell_codes, codes)
        locations = np.minimum(locations, len(self._cell_codes) - 1)
        found = self._cell_codes[locations] == codes
        starts = self._cell_starts[locations]
        counts = np.where(found, self._cell_counts[locations], 0)
        return starts, counts

    def _candidate_pairs(self, query_cell_x, query_cell_y, radius: float):
        """Expand every (query, bucket-member) candidate pair around the
        queried cells — the vectorized equivalent of the scalar 3×3 scan.

        Postcondition: pairs come out grouped by query, in nondecreasing
        query order (each query owns a contiguous block of offsets, and the
        expansions preserve that order); downstream per-query splits rely
        on it.
        """

        reach = self._reach(radius)
        num_queries = len(query_cell_x)
        if not num_queries:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        # Every query scans the same (2*reach+1)² block of offsets; shifting
        # all of them at once gives one code array — and one bucket lookup,
        # one expansion — for the whole scan instead of one per offset.
        deltas = np.arange(-reach, reach + 1, dtype=np.int64)
        shifted_x = np.clip(
            query_cell_x[:, None] + deltas, -_CELL_LIMIT, _CELL_LIMIT
        )
        shifted_y = np.clip(
            query_cell_y[:, None] + deltas, -_CELL_LIMIT, _CELL_LIMIT
        )
        codes = (
            shifted_x[:, :, None] * _CODE_BASE + shifted_y[:, None, :]
        ).reshape(-1)
        starts, counts = self._bucket_lookup(codes)
        total = int(counts.sum())
        if not total:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        span = len(deltas) * len(deltas)
        code_queries = np.repeat(np.arange(num_queries, dtype=np.intp), span)
        queries = np.repeat(code_queries, counts)
        ends = np.cumsum(counts)
        offsets = np.arange(total) - np.repeat(ends - counts, counts)
        candidates = self._order[np.repeat(starts, counts) + offsets]
        return queries, candidates

    # -- range queries ------------------------------------------------------
    def near(self, point: Point, radius: float) -> frozenset[str]:
        """Every indexed host within ``radius`` of ``point`` (inclusive) —
        exactly :meth:`SpatialGridIndex.near`."""

        if radius < 0:
            raise ValueError("radius must be non-negative")
        if not len(self.ids):
            return frozenset()
        cell_x = np.array([min(max(point.x // self.cell_size, -_CELL_LIMIT), _CELL_LIMIT)], dtype=np.int64)
        cell_y = np.array([min(max(point.y // self.cell_size, -_CELL_LIMIT), _CELL_LIMIT)], dtype=np.int64)
        _, candidates = self._candidate_pairs(cell_x, cell_y, radius)
        if not candidates.size:
            return frozenset()
        inside = _within_radius(
            self.xs[candidates] - point.x, self.ys[candidates] - point.y, radius
        )
        return frozenset(self._ids_array[candidates[inside]].tolist())

    def neighbours_of(self, host_id: str, radius: float) -> frozenset[str]:
        """Hosts within ``radius`` of ``host_id``, excluding itself."""

        return self.near(self.position_of(host_id), radius) - {host_id}

    def disc_pairs(self, indices, radius: float):
        """``(query_index, member_index)`` pairs of the radio discs around a
        subset of hosts, self-pairs included (as in the scalar ``near``).

        ``query_index`` values index into ``indices``' positions — i.e. the
        pair ``(q, m)`` says host ``indices[q]``'s disc contains host ``m``.
        """

        indices = np.asarray(indices, dtype=np.intp)
        queries, candidates = self._candidate_pairs(
            self._cell_x[indices], self._cell_y[indices], radius
        )
        if not queries.size:
            return queries, candidates
        inside = _within_radius(
            self.xs[indices[queries]] - self.xs[candidates],
            self.ys[indices[queries]] - self.ys[candidates],
            radius,
        )
        return queries[inside], candidates[inside]

    def _block_pairs(self, radius: float):
        """Every ``(host, other)`` index pair sharing a cell block over the
        whole population, self-pairs removed, with the pairs' coordinate
        deltas ``(dx, dy)`` (host minus other)."""

        queries, candidates = self._candidate_pairs(self._cell_x, self._cell_y, radius)
        others = queries != candidates
        queries, candidates = queries[others], candidates[others]
        dx = self.xs[queries] - self.xs[candidates]
        dy = self.ys[queries] - self.ys[candidates]
        return queries, candidates, dx, dy

    def _certificate(self, queries, candidates, d2, radius, speeds, margin):
        """The sweep's :class:`~repro.net.spatial.Certificate`: the scalar
        :meth:`SpatialGridIndex.neighbour_sets_and_labels` bounds over the
        same block pairs (``d2`` their squared distances) and cells, in the
        same float operations."""

        edge = math.inf
        fastest = float(speeds.max())
        if fastest > 0.0:
            size = self.cell_size
            cell_x = np.floor_divide(self.xs, size)
            cell_y = np.floor_divide(self.ys, size)
            edges = np.minimum(
                np.minimum(self.xs - cell_x * size, (cell_x + 1) * size - self.xs),
                np.minimum(self.ys - cell_y * size, (cell_y + 1) * size - self.ys),
            )
            edge = float(((edges - margin) / (speeds + fastest)).min())
        closing = speeds[queries] + speeds[candidates]
        kept = np.nonzero((closing > 0.0) & (queries < candidates))[0]
        # In place on the fresh sqrt array: sqrt(d2) - R, abs, - margin,
        # / closing — the scalar sweep's operations in its order.
        gaps = np.sqrt(d2[kept])
        gaps -= radius
        np.abs(gaps, out=gaps)
        gaps -= margin
        closing = closing[kept]
        gaps /= closing
        soon = np.nonzero(gaps < edge)[0]
        kept = kept[soon]
        ids = self.ids
        pairs = [
            (bound, ids[host], ids[other], speed)
            for bound, host, other, speed in zip(
                gaps[soon].tolist(),
                queries[kept].tolist(),
                candidates[kept].tolist(),
                closing[soon].tolist(),
            )
        ]
        return Certificate(edge, pairs)

    def neighbour_sets_and_labels(
        self, radius: float, speeds=None, margin: float = 0.0
    ) -> tuple[dict[str, frozenset[str]], dict[str, int], Certificate | None]:
        """Every host's neighbour set, connectivity-component label and
        stability certificate from one whole-population sweep.

        The sets equal per-host ``neighbours_of`` answers exactly; the
        labels partition hosts identically to the scalar BFS (label values
        are arbitrary on both paths — only the partition is meaningful).
        With ``speeds`` (an array aligned with ``ids``: metres per second on
        each host's current leg) the sweep's block pairs also yield the
        certificate, bit-identical to the scalar
        :meth:`~repro.net.spatial.SpatialGridIndex.neighbour_sets_and_labels`;
        without them it is ``None``.
        """

        size = len(self.ids)
        neighbour_sets: dict[str, frozenset[str]] = {}
        labels: dict[str, int] = {}
        if not size:
            certificate = None if speeds is None else Certificate(math.inf, [])
            return neighbour_sets, labels, certificate
        # _candidate_pairs' grouped-by-query order survives the filters, so
        # the per-host rows are already contiguous runs.
        queries, candidates, dx, dy = self._block_pairs(radius)
        d2 = dx * dx + dy * dy
        certificate = (
            None
            if speeds is None
            else self._certificate(queries, candidates, d2, radius, speeds, margin)
        )
        inside = _within_radius(dx, dy, radius, d2)
        queries, members = queries[inside], candidates[inside]
        counts = np.bincount(queries, minlength=size)
        boundaries = np.cumsum(counts)
        member_list = members.tolist()
        boundary_list = boundaries.tolist()
        ids = self.ids
        # One vectorized index→id gather, then C-level slice/frozenset maps:
        # no per-member Python frames anywhere in the translation.
        member_ids = self._ids_array[members].tolist()
        row_slices = list(map(slice, [0] + boundary_list[:-1], boundary_list))
        adjacency: list[list[int]] = list(map(member_list.__getitem__, row_slices))
        neighbour_sets.update(
            zip(ids, map(frozenset, map(member_ids.__getitem__, row_slices)))
        )
        # One BFS sweep over the int adjacency (no string or set churn).
        seen = [False] * size
        next_label = 0
        for seed in range(size):
            if seen[seed]:
                continue
            seen[seed] = True
            frontier = [seed]
            labels[ids[seed]] = next_label
            while frontier:
                current = frontier.pop()
                for member in adjacency[current]:
                    if not seen[member]:
                        seen[member] = True
                        labels[ids[member]] = next_label
                        frontier.append(member)
            next_label += 1
        return neighbour_sets, labels, certificate

    def component_labels(self, radius: float) -> dict[str, int]:
        """Map every host to a connectivity-component label (cf.
        :meth:`SpatialGridIndex.component_labels`)."""

        return self.neighbour_sets_and_labels(radius)[1]

    def __repr__(self) -> str:
        return (
            f"VectorGridIndex(hosts={len(self.ids)}, "
            f"cells={len(self._cell_codes)}, cell_size={self.cell_size})"
        )


class LazyPositions(Mapping):
    """Read-only ``host -> Point`` mapping view over a :class:`VectorGridIndex`.

    The vectorized snapshot keeps positions only as the grid's coordinate
    arrays; materialising a :class:`Point` per host per tick would cost
    more than the batched advance it accompanies.  This view constructs
    Points on access instead — membership, length, and iteration come
    straight from the grid, and after ``move_many`` the view reflects the
    new coordinates with no per-host work at all.
    """

    __slots__ = ("_grid",)

    def __init__(self, grid: VectorGridIndex) -> None:
        self._grid = grid

    def __getitem__(self, host_id: str) -> Point:
        if host_id not in self._grid:
            raise KeyError(host_id)
        return self._grid.position_of(host_id)

    def __contains__(self, host_id: object) -> bool:
        return host_id in self._grid

    def __iter__(self):
        return iter(self._grid.ids)

    def __len__(self) -> int:
        return len(self._grid)

    def __repr__(self) -> str:
        return f"LazyPositions({len(self._grid)} hosts)"

