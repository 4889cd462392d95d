"""Scaling benchmark for the batched allocation protocol + event-driven
link maintenance (PR 4).

Two workloads, mirroring the PR's two hot paths:

* **auction_batching** — fig5-style repeat submissions (the shared
  knowledge plane makes discovery free from the 2nd submission on, so the
  auction dominates): the same guaranteed-satisfiable specification
  submitted several times at one initiator, once with the batched
  O(participants) protocol (the default) and once with the original
  per-(task, participant) exchange (``batch_auctions=False``).  Reports
  allocation messages/bytes per workflow and the end-to-end wall-clock of
  the 2nd..Nth submissions.
* **adhoc_maintenance** — an adhoc-scaling trial (multi-hop 802.11g,
  random-waypoint mobility) run with event-driven snapshot advances
  (``incremental_grid=True``, the default) vs. the per-tick full rebuild,
  reporting wall-clock and how many O(n) rebuilds each mode paid.

Everything here is ``slow``-marked; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_allocation_scaling.py -m slow

Set ``REPRO_BENCH_FAST=1`` (the CI smoke job does) to shrink the sizes so
the whole file runs in a few seconds while still asserting that the batched
protocol cuts message counts; the full acceptance thresholds (>=5x fewer
allocation messages at 8+ participants, >=2x end-to-end wall-clock) only
apply to the full-size run.

Each run (re)writes ``benchmarks/BENCH_allocation.json`` following the
``BENCH_discovery.json`` format (sections merged into the existing file).
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.experiments.trials import adhoc_network_factory, build_trial_community
from repro.host.workspace import WorkflowPhase
from repro.mobility.geometry import square_site
from repro.mobility.models import RandomWaypointMobility
from repro.sim.randomness import derive_rng, derive_seed
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

pytestmark = pytest.mark.slow

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

BENCH_SEED = 20090514
NUM_FRAGMENTS = 30 if FAST else 100
PATH_LENGTH = 4 if FAST else 8
HOST_COUNTS = (4,) if FAST else (4, 8, 12)
REPEATS = 2 if FAST else 5  # submissions; the first is the cold start
ROUNDS = 1 if FAST else 3  # independent timing rounds; the fastest is kept
SCALING_HOSTS = 30 if FAST else 150

AUCTION_KINDS = (
    "CallForBids",
    "BidMessage",
    "BidDeclined",
    "AwardMessage",
    "CallForBidsBatch",
    "BidBatch",
    "AwardBatch",
)

RESULTS_PATH = Path(__file__).with_name("BENCH_allocation.json")
_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Merge this run's measurements into ``BENCH_allocation.json``.

    Fast mode never writes: its tiny-size numbers would overwrite (and be
    indistinguishable from) the full-size sections the acceptance numbers
    live in.  The CI smoke job only needs the in-test assertions.
    """

    yield
    if not _RESULTS or FAST:
        return
    existing: dict = {}
    if RESULTS_PATH.exists():
        try:
            existing = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = {}
    for section, payload in _RESULTS.items():
        existing.setdefault(section, {}).update(payload)
    existing["meta"] = {
        "seed": BENCH_SEED,
        "num_fragments": NUM_FRAGMENTS,
        "path_length": PATH_LENGTH,
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "fast_mode": FAST,
        "cpu_count": os.cpu_count(),
    }
    RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Workload 1: batched vs per-task auction protocol (fig5-style repeats)
# ---------------------------------------------------------------------------


def run_auction_protocol(num_hosts: int, batch_auctions: bool) -> dict:
    """Submit the same spec ``REPEATS`` times; measure the 2nd..Nth runs."""

    workload = RandomSupergraphWorkload(seed=BENCH_SEED).generate(NUM_FRAGMENTS)
    community = build_trial_community(
        workload,
        num_hosts=num_hosts,
        seed=BENCH_SEED,
        batch_auctions=batch_auctions,
    )
    rng = derive_rng(BENCH_SEED, "bench-alloc-spec", num_hosts)
    specification = workload.path_specification(PATH_LENGTH, rng)
    assert specification is not None
    stats = community.network.statistics

    allocation_wall = 0.0
    auction_messages = 0
    auction_bytes = 0
    workflow_tasks = 0
    for attempt in range(REPEATS):
        messages_before = stats.kind_count(*AUCTION_KINDS)
        bytes_before = stats.kind_bytes(*AUCTION_KINDS)
        workspace = community.submit_specification("host-0", specification)
        community.run_until_allocated(workspace)
        assert workspace.phase in (WorkflowPhase.EXECUTING, WorkflowPhase.COMPLETED)
        workflow_tasks = len(workspace.workflow.task_names)
        if attempt == 0:
            continue  # cold start: discovery dominates, not the auction
        _, wall = workspace.time_to_allocation()
        allocation_wall += wall
        auction_messages += stats.kind_count(*AUCTION_KINDS) - messages_before
        auction_bytes += stats.kind_bytes(*AUCTION_KINDS) - bytes_before
    repeat_count = REPEATS - 1
    return {
        "allocation_seconds": allocation_wall,
        "auction_messages_per_workflow": auction_messages / repeat_count,
        "auction_bytes_per_workflow": auction_bytes / repeat_count,
        "workflow_tasks": workflow_tasks,
        "participants": num_hosts,
        "repeat_submissions": repeat_count,
    }


def best_of_rounds(num_hosts: int, batch_auctions: bool) -> dict:
    """Keep the fastest of ``ROUNDS`` timing rounds (counts are deterministic)."""

    rounds = [run_auction_protocol(num_hosts, batch_auctions) for _ in range(ROUNDS)]
    return min(rounds, key=lambda r: r["allocation_seconds"])


@pytest.mark.parametrize("num_hosts", HOST_COUNTS)
def test_batched_auction_collapses_message_count(num_hosts):
    batched = best_of_rounds(num_hosts, batch_auctions=True)
    unbatched = best_of_rounds(num_hosts, batch_auctions=False)

    message_ratio = (
        unbatched["auction_messages_per_workflow"]
        / batched["auction_messages_per_workflow"]
        if batched["auction_messages_per_workflow"]
        else float("inf")
    )
    wall_speedup = (
        unbatched["allocation_seconds"] / batched["allocation_seconds"]
        if batched["allocation_seconds"] > 0
        else float("inf")
    )
    _RESULTS.setdefault("auction_batching", {})[str(num_hosts)] = {
        "batched": batched,
        "unbatched": unbatched,
        "message_ratio": message_ratio,
        "byte_ratio": (
            unbatched["auction_bytes_per_workflow"]
            / batched["auction_bytes_per_workflow"]
            if batched["auction_bytes_per_workflow"]
            else float("inf")
        ),
        "end_to_end_speedup": wall_speedup,
    }

    # The batched protocol must always cut the message count.
    assert batched["auction_messages_per_workflow"] < (
        unbatched["auction_messages_per_workflow"]
    )
    if FAST:
        return
    # Acceptance: >=5x fewer allocation messages per workflow at 8+
    # participants (deterministic) and >=2x end-to-end wall-clock on the
    # warm fig5 path.  Wall-clock is noisy on a busy 1-core container, so
    # the hard 2x bound applies at the largest community, with a floor at 8.
    if num_hosts >= 8:
        assert message_ratio >= 5.0, f"message ratio {message_ratio:.1f}x < 5x"
        assert wall_speedup >= 1.4, f"end-to-end speedup {wall_speedup:.2f}x < 1.4x"
    if num_hosts >= max(HOST_COUNTS):
        assert wall_speedup >= 2.0, f"end-to-end speedup {wall_speedup:.2f}x < 2x"


# ---------------------------------------------------------------------------
# Workload 2: event-driven link maintenance vs per-tick rebuild
# ---------------------------------------------------------------------------


def mixed_mobility(index: int):
    """Mostly-at-rest population: 4 of 5 devices sit with their users
    (static scatter), every 5th wanders as a random waypoint — the
    deployment shape event-driven maintenance is built for (and the
    paper's scenarios approximate: people pause at locations)."""

    site = square_site(60.0 * math.sqrt(SCALING_HOSTS))
    if index % 5 == 0:
        return RandomWaypointMobility(
            site, seed=derive_seed(BENCH_SEED, "bench-maint", index)
        )
    rng = derive_rng(BENCH_SEED, "bench-maint-scatter", index)
    return site.random_point(rng)


def run_maintenance_trial(incremental_grid: bool) -> dict:
    """One adhoc-scaling trial (mobile multi-hop community), timed.

    The community, workload, mobility trajectories, and specification are
    identical across the two modes; only the snapshot maintenance strategy
    differs, so simulated time must agree exactly and the counters show
    how much O(n) rebuild work each mode paid.
    """

    workload = RandomSupergraphWorkload(seed=BENCH_SEED).generate(NUM_FRAGMENTS)
    spec_rng = derive_rng(BENCH_SEED, "bench-maint-spec", SCALING_HOSTS)
    specification = workload.path_specification(4, spec_rng)
    assert specification is not None

    community = build_trial_community(
        workload,
        SCALING_HOSTS,
        seed=BENCH_SEED,
        network_factory=adhoc_network_factory(
            BENCH_SEED, multi_hop=True, incremental_grid=incremental_grid
        ),
        mobility_factory=mixed_mobility,
    )
    started = time.perf_counter()
    workspace = community.submit_specification("host-0", specification)
    community.run_until_allocated(workspace, max_sim_seconds=3_600.0)
    elapsed = time.perf_counter() - started
    network = community.network
    sim_timing = workspace.time_to_allocation()
    return {
        "trial_seconds": elapsed,
        "hosts": SCALING_HOSTS,
        "phase": workspace.phase.value,
        "sim_seconds": sim_timing[0] if sim_timing else 0.0,
        "snapshots": network.snapshots_built,
        "grid_rebuilds": network.grid_rebuilds,
        "hosts_reevaluated": network.hosts_reevaluated,
    }


def test_event_driven_maintenance_beats_full_rebuild():
    incremental = min(
        (run_maintenance_trial(True) for _ in range(ROUNDS)),
        key=lambda r: r["trial_seconds"],
    )
    rebuild = min(
        (run_maintenance_trial(False) for _ in range(ROUNDS)),
        key=lambda r: r["trial_seconds"],
    )
    speedup = (
        rebuild["trial_seconds"] / incremental["trial_seconds"]
        if incremental["trial_seconds"] > 0
        else float("inf")
    )
    _RESULTS["adhoc_maintenance"] = {
        str(SCALING_HOSTS): {
            "incremental": incremental,
            "rebuild": rebuild,
            "speedup": speedup,
        }
    }
    # Identical simulation either way; the incremental path pays (almost) no
    # O(n) rebuilds while the reference path rebuilds every tick.
    assert incremental["phase"] == rebuild["phase"]
    assert incremental["sim_seconds"] == rebuild["sim_seconds"]
    assert incremental["grid_rebuilds"] < rebuild["grid_rebuilds"]


def run_tick_sweep(incremental_grid: bool) -> dict:
    """The maintenance cost in isolation: many ticks, few geometry queries.

    A mostly-at-rest multi-hop community, the clock advanced 50 ms at a
    time — the instant spacing the discrete event simulation actually
    produces (consecutive instants are message latencies apart, so links
    rarely change between neighbouring ticks); each tick asks for a
    handful of neighbour sets and one connectivity verdict — the query mix
    route revalidation generates.  The rebuild path pays
    O(n) position evaluations plus a fresh component sweep per tick
    regardless; the event-driven path pays O(moved hosts) and keeps its
    memos across the (common) no-link-change ticks.
    """

    from repro.net.adhoc import AdHocWirelessNetwork
    from repro.sim.events import EventScheduler

    ticks = 60 if FAST else 400
    scheduler = EventScheduler()
    network = AdHocWirelessNetwork(
        scheduler,
        radio_range=150.0,
        multi_hop=True,
        incremental_grid=incremental_grid,
    )
    hosts = [f"host-{index}" for index in range(SCALING_HOSTS)]
    for index, host in enumerate(hosts):
        network.register(host, lambda m: None)
        network.place_host(host, mixed_mobility(index))
    probes = hosts[:: max(1, SCALING_HOSTS // 8)]
    started = time.perf_counter()
    for _ in range(ticks):
        scheduler.clock.advance(0.05)
        for probe in probes:
            network.neighbours_of(probe)
        network.is_connected()
    elapsed = time.perf_counter() - started
    return {
        "tick_seconds": elapsed,
        "ticks": ticks,
        "hosts": SCALING_HOSTS,
        "grid_rebuilds": network.grid_rebuilds,
        "hosts_reevaluated": network.hosts_reevaluated,
        "hosts_moved": network.hosts_moved,
    }


def test_tick_sweep_is_cheaper_event_driven():
    incremental = min(
        (run_tick_sweep(True) for _ in range(ROUNDS)),
        key=lambda r: r["tick_seconds"],
    )
    rebuild = min(
        (run_tick_sweep(False) for _ in range(ROUNDS)),
        key=lambda r: r["tick_seconds"],
    )
    speedup = (
        rebuild["tick_seconds"] / incremental["tick_seconds"]
        if incremental["tick_seconds"] > 0
        else float("inf")
    )
    _RESULTS["tick_maintenance"] = {
        str(SCALING_HOSTS): {
            "incremental": incremental,
            "rebuild": rebuild,
            "speedup": speedup,
        }
    }
    assert incremental["grid_rebuilds"] <= 1
    if not FAST:
        assert speedup >= 1.2, f"tick maintenance speedup {speedup:.2f}x < 1.2x"
