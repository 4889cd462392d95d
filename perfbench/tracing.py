"""Layer attribution from outside the program: spans around entry points.

:func:`install` replaces each layer's public entry points (class or module
attributes, listed in :func:`entry_points`) with wrappers that record a
span — entry, start, end, parent span, trial — into a :class:`Tracer`, and
:func:`remove` puts every original attribute back.  The wrappers must be in
place before any community is built: hosts bind their message handlers at
construction, so only hosts built afterwards dispatch through wrappers.

Spans stay in memory in flat arrays; :func:`aggregate` turns them into
per-entry and per-layer calls, inclusive time (``.ms``, nested spans of
the same entry or layer counted once) and self time (``.self_ms``, a
span's duration minus its direct children's), and :meth:`Tracer.write`
saves them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import operator
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Layers in report order; a span's layer is the prefix of its entry name.
LAYERS = (
    "sim",
    "net",
    "host",
    "discovery",
    "core",
    "allocation",
    "scheduling",
    "execution",
    "durability",
    "workloads",
    "experiments",
)

#: The benchmark's own span around one whole trial.  Its self time is the
#: trial time no layer span covers (``other.self_ms``).
TRIAL = "other.trial"

#: Span trial id for work outside any trial (setup, warm-up).
NO_TRIAL = -1

Counter = Callable[[dict, tuple, object], None]


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.entry = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.trial_id = NO_TRIAL
        #: Counts taken at entry-point boundaries during trials.
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.entry.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self.trial_id)
        self.end.append(0.0)
        self._stack.append(index)
        # Last, so the bookkeeping above is charged to the parent span.
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (used to build span trees in tests)."""

        index = len(self.start)
        self.entry.append(self.name_id(name))
        self.parent.append(parent)
        self.trial.append(self.trial_id)
        self.start.append(start)
        self.end.append(end)
        return index

    def write(self, path: Path) -> None:
        """Save every span as gzipped tab-separated text, one span per line."""

        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\ttrial\tentry\tstart_us\tend_us\n")
            origin = self.start[0] if len(self.start) else 0.0
            for index in range(len(self.start)):
                out.write(
                    f"{index}\t{self.parent[index]}\t{self.trial[index]}\t"
                    f"{self.names[self.entry[index]]}\t"
                    f"{(self.start[index] - origin) * 1e6:.1f}\t"
                    f"{(self.end[index] - origin) * 1e6:.1f}\n"
                )


@dataclass(frozen=True)
class Entry:
    """One wrapped attribute: ``owner.attr`` recorded as span ``name``."""

    name: str
    owner: object
    attr: str
    count: Counter | None = None


def _wrap(tracer: Tracer, name: str, original, count: Counter | None):
    name_id = tracer.name_id(name)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.open(name_id)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None and tracer.trial_id != NO_TRIAL:
            count(tracer.counts, args, result)
        return result

    return traced


def install(tracer: Tracer, entries: list[Entry]) -> list[tuple[object, str, object]]:
    """Wrap every entry; returns the originals for :func:`remove`."""

    saved = []
    try:
        for entry in entries:
            original = vars(entry.owner)[entry.attr]
            saved.append((entry.owner, entry.attr, original))
            setattr(entry.owner, entry.attr, _wrap(tracer, entry.name, original, entry.count))
    except BaseException:
        remove(saved)
        raise
    return saved


def remove(saved: list[tuple[object, str, object]]) -> None:
    """Put back every attribute :func:`install` replaced."""

    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- the entry points --------------------------------------------------------
def _concrete(base: type, attr: str) -> list[type]:
    """``base`` and its loaded subclasses that implement ``attr`` themselves."""

    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        function = vars(cls).get(attr)
        if function is not None and not getattr(function, "__isabstractmethod__", False):
            found.append(cls)
    return sorted(set(found), key=lambda cls: (cls.__module__, cls.__qualname__))


def _count_send(counts: dict, args: tuple, result) -> None:
    message = args[1]
    if message.kind in ("FragmentQuery", "FragmentResponse"):
        counts["discovery.fragment_bytes"] += message.size_bytes()


def _count_intercept(counts: dict, args: tuple, decision) -> None:
    if not decision.deliver:
        counts["net.dropped"] += 1


def _count_solve(counts: dict, args: tuple, result) -> None:
    statistics = result.statistics
    counts["core.cache_hits"] += statistics.cache_hits
    counts["core.cache_misses"] += statistics.cache_misses
    counts["core.nodes_recolored"] += statistics.nodes_recolored


def _count_append(counts: dict, args: tuple, result) -> None:
    counts["durability.bytes"] += len(args[1])


def _count_publish(counts: dict, args: tuple, segment) -> None:
    counts["experiments.shared_bytes"] += segment.wire_bytes


#: Methods of HostDurability that are not journal records.
_NOT_RECORDS = {"suspended", "compact", "records", "state"}


def entry_points() -> list[Entry]:
    """The public entry points of every layer, as the layer table lists them."""

    from repro.allocation.auction import AuctionManager
    from repro.allocation.participation import AuctionParticipationManager
    from repro.core.solver import Solver
    from repro.discovery.knowhow import FragmentManager
    from repro.durability.backend import DurabilityBackend
    from repro.durability.plane import HostDurability
    from repro.execution.engine import ExecutionManager
    from repro.experiments import runner
    from repro.host.community import Community
    from repro.host.host import Host
    from repro.host.workflow_manager import WorkflowManager
    from repro.net.adhoc import AdHocWirelessNetwork
    from repro.net.faults import FaultPlane
    from repro.net.kernels import VectorGridIndex
    from repro.net.routing import AodvRouter
    from repro.net.transport import CommunicationsLayer
    from repro.scheduling.schedule import ScheduleManager
    from repro.sim.events import EventScheduler
    from repro.workloads.supergraph_gen import RandomSupergraphWorkload

    entries = [
        Entry("sim.step", EventScheduler, "step"),
        Entry("net.send", CommunicationsLayer, "send", _count_send),
        *(
            Entry("net.is_reachable", cls, "is_reachable")
            for cls in _concrete(CommunicationsLayer, "is_reachable")
        ),
        Entry("net.latency_for", AdHocWirelessNetwork, "latency_for"),
        Entry("net.label_sweep", VectorGridIndex, "neighbour_sets_and_labels"),
        Entry("net.route_lookup", AodvRouter, "lookup"),
        Entry("net.fault_intercept", FaultPlane, "intercept", _count_intercept),
        Entry("host.add_host", Community, "add_host"),
        Entry("host.restart", Community, "restart_host"),
        Entry("host.on_message", Host, "on_message"),
        Entry("discovery.add_fragment", FragmentManager, "add_fragment"),
        Entry("discovery.handle_query", FragmentManager, "handle_query"),
        Entry("discovery.handle_response", WorkflowManager, "handle_fragment_response"),
        *(
            Entry("core.solve", cls, "solve", _count_solve)
            for cls in _concrete(Solver, "solve")
        ),
        Entry("allocation.auction", AuctionManager, "start_auction"),
        Entry("allocation.bid", AuctionManager, "handle_bid_batch"),
        Entry("allocation.bid", AuctionParticipationManager, "handle_call_for_bids_batch"),
        Entry("allocation.award", AuctionManager, "handle_award_ack"),
        Entry("allocation.award", AuctionParticipationManager, "handle_award_batch"),
        Entry("scheduling.find_slot", ScheduleManager, "find_slot"),
        Entry("execution.watch", ExecutionManager, "watch"),
        Entry("execution.labels", ExecutionManager, "handle_label_batch"),
        Entry("execution.replay", ExecutionManager, "handle_replay_request"),
        Entry("execution.progress", WorkflowManager, "handle_progress_report"),
        Entry("execution.progress", WorkflowManager, "handle_task_failed"),
        *(
            Entry("durability.record", HostDurability, attr)
            for attr, function in sorted(vars(HostDurability).items())
            if inspect.isfunction(function)
            and not attr.startswith("_")
            and attr not in _NOT_RECORDS
        ),
        *(
            Entry("durability.append", cls, "append", _count_append)
            for cls in _concrete(DurabilityBackend, "append")
        ),
        *(
            Entry("durability.snapshot", cls, "write_snapshot")
            for cls in _concrete(DurabilityBackend, "write_snapshot")
        ),
        Entry("durability.restore", Host, "restore_durable_state"),
        Entry("workloads.generate", RandomSupergraphWorkload, "generate"),
        Entry("experiments.run", runner.TrialRunner, "run"),
        Entry("experiments.publish", runner, "publish_workloads", _count_publish),
    ]
    return entries


# -- aggregation ---------------------------------------------------------------
@dataclass
class Totals:
    calls: int = 0
    ms: float = 0.0
    self_ms: float = 0.0


def aggregate(tracer: Tracer, trial_ids: set[int] | None = None) -> dict[str, Totals]:
    """Calls, inclusive and self time per entry name and per layer.

    Only spans of the given trials count (all spans when ``None``).  An
    entry's calls and ``.ms`` count a span only when no ancestor belongs to
    the same entry (a wrapped method calling its wrapped super method is one
    call); a layer's ``.ms`` likewise counts only its outermost spans.
    ``.self_ms`` sums every span's own time, so the self times of all layers
    plus ``other`` add up to the trials' total time.
    """

    count = len(tracer.start)
    if len(tracer.names) > 64:
        raise ValueError("entry marks are 64-bit masks: too many entry names")
    duration = array("d", map(operator.sub, tracer.end, tracer.start))
    children = array("d", bytes(8 * count))
    for index in range(count):
        parent = tracer.parent[index]
        if parent >= 0:
            children[parent] += duration[index]
    layer_of = [name.split(".", 1)[0] for name in tracer.names]
    layer_bit = {layer: 1 << position for position, layer in enumerate(sorted(set(layer_of)))}
    # Bit masks of the entries and layers on each span's ancestor path.
    entry_marks = array("Q", bytes(8 * count))
    layer_marks = array("Q", bytes(8 * count))
    totals: dict[str, Totals] = defaultdict(Totals)
    for index in range(count):
        entry = tracer.entry[index]
        layer = layer_of[entry]
        parent = tracer.parent[index]
        inherited_entries = entry_marks[parent] if parent >= 0 else 0
        inherited_layers = layer_marks[parent] if parent >= 0 else 0
        entry_marks[index] = inherited_entries | (1 << entry)
        layer_marks[index] = inherited_layers | layer_bit[layer]
        if trial_ids is not None and tracer.trial[index] not in trial_ids:
            continue
        name = tracer.names[entry]
        own = (duration[index] - children[index]) * 1e3
        totals[name].self_ms += own
        totals[layer].self_ms += own
        if not inherited_entries >> entry & 1:
            totals[name].calls += 1
            totals[name].ms += duration[index] * 1e3
            totals[layer].calls += 1
        if not inherited_layers & layer_bit[layer]:
            totals[layer].ms += duration[index] * 1e3
    return dict(totals)
