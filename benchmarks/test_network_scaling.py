"""Scaling benchmarks for the spatial-indexed wireless network substrate.

Measures, at 50/200/500 hosts scattered over a density-preserving site:

* full neighbour-set sweeps per simulated tick — grid snapshot vs. the
  brute-force O(n) scans (``use_spatial_index=False``);
* community connectivity probes — one components pass vs. the original
  all-pairs reachability loop;
* route churn under mobility — revalidation keyed by the topology
  generation vs. flushing the route cache on every movement tick (the
  ``epoch_*`` keys of ``BENCH_network.json`` name the revalidating run);
* a fig4-style sweep through the parallel ``TrialRunner`` vs. sequential
  execution (skipped below 4 cores);
* the vectorized geometry kernels at fleet scale (1000 and 5000 hosts) —
  batched snapshot advance and whole-population neighbour sweeps vs. the
  scalar per-host loops (``vectorized=False``), plus a 1000-host mobile
  end-to-end trial on the auto-resolved flags.

Everything here is ``slow``-marked; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_network_scaling.py -m slow

Set ``REPRO_BENCH_FAST=1`` (the CI smoke job does) to drop the 5000-host
rows and shrink the tick counts so the whole module stays in the CI
budget; speedup thresholds relax accordingly.

Each run (re)writes ``benchmarks/BENCH_network.json`` with the sections it
measured (existing sections from earlier runs are preserved), so the perf
trajectory of the network substrate is tracked from this PR on.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.experiments.runner import TrialRunner, sweep_tasks
from repro.mobility.geometry import square_site
from repro.mobility.models import RandomWaypointMobility
from repro.net.adhoc import AdHocWirelessNetwork
from repro.sim.events import EventScheduler
from repro.sim.randomness import derive_rng, derive_seed

pytestmark = pytest.mark.slow

BENCH_SEED = 20090514
RADIO_RANGE = 150.0
# 60 m of site side per sqrt(host): keeps the mean radio degree near 20
# regardless of population, so per-query work measures the index, not a
# densifying swarm.
SITE_SPACING = 60.0

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))


@contextmanager
def quiesced_gc():
    """Keep collector pauses (from earlier tests' garbage) out of timings."""

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

RESULTS_PATH = Path(__file__).with_name("BENCH_network.json")
_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Merge this run's measurements into ``BENCH_network.json``."""

    yield
    if not _RESULTS:
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
        "radio_range_m": RADIO_RANGE,
        "cpu_count": os.cpu_count(),
    }
    RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def build_network(
    num_hosts: int,
    use_spatial_index: bool,
    mobile: bool = False,
    vectorized: bool | None = None,
) -> tuple[AdHocWirelessNetwork, EventScheduler]:
    scheduler = EventScheduler()
    network = AdHocWirelessNetwork(
        scheduler,
        radio_range=RADIO_RANGE,
        use_spatial_index=use_spatial_index,
        vectorized=vectorized,
    )
    site = square_site(SITE_SPACING * math.sqrt(num_hosts))
    for index in range(num_hosts):
        host = f"h{index}"
        network.register(host, lambda m: None)
        if mobile:
            network.place_host(
                host,
                RandomWaypointMobility(
                    site, seed=derive_seed(BENCH_SEED, "walk", index), pause=0.0
                ),
            )
        else:
            network.place_host(host, site.random_point(derive_rng(BENCH_SEED, "place", index)))
    return network, scheduler


def timed_neighbour_sweeps(network, scheduler, rounds: int) -> float:
    """Seconds for ``rounds`` ticks of querying every host's neighbour set."""

    hosts = sorted(network.host_ids)
    started = time.perf_counter()
    for _ in range(rounds):
        scheduler.clock.advance(1.0)  # fresh tick: nothing memoized yet
        for host in hosts:
            network.neighbours_of(host)
    return time.perf_counter() - started


@pytest.mark.parametrize("num_hosts", (50, 200, 500))
def test_neighbour_query_speedup(num_hosts):
    rounds = 5
    brute, brute_scheduler = build_network(num_hosts, use_spatial_index=False)
    grid, grid_scheduler = build_network(num_hosts, use_spatial_index=True)
    brute_seconds = timed_neighbour_sweeps(brute, brute_scheduler, rounds)
    grid_seconds = timed_neighbour_sweeps(grid, grid_scheduler, rounds)
    speedup = brute_seconds / grid_seconds
    _RESULTS.setdefault("neighbour_query", {})[str(num_hosts)] = {
        "rounds": rounds,
        "brute_seconds": brute_seconds,
        "grid_seconds": grid_seconds,
        "speedup": speedup,
    }
    if num_hosts >= 200:
        assert speedup >= 5.0, (
            f"grid neighbour queries only {speedup:.1f}x faster than brute force "
            f"at {num_hosts} hosts"
        )


@pytest.mark.parametrize("num_hosts", (50, 200))
def test_connectivity_probe_speedup(num_hosts):
    rounds = 3
    timings = {}
    for label, use_spatial_index in (("brute", False), ("grid", True)):
        network, scheduler = build_network(num_hosts, use_spatial_index=use_spatial_index)
        started = time.perf_counter()
        for _ in range(rounds):
            scheduler.clock.advance(1.0)
            network.is_connected()
        timings[label] = time.perf_counter() - started
    speedup = timings["brute"] / timings["grid"]
    _RESULTS.setdefault("connectivity", {})[str(num_hosts)] = {
        "rounds": rounds,
        "brute_seconds": timings["brute"],
        "grid_seconds": timings["grid"],
        "speedup": speedup,
    }
    if num_hosts >= 200:
        assert speedup >= 5.0


@pytest.mark.parametrize("num_hosts", (200,))
def test_route_churn_under_mobility(num_hosts):
    """Generation-keyed revalidation keeps most routes across movement
    ticks (recorded under the ``epoch_*`` keys)."""

    ticks, pairs_per_tick = 20, 50

    def churn(flush_each_tick: bool) -> tuple[float, int]:
        network, scheduler = build_network(num_hosts, use_spatial_index=True, mobile=True)
        pair_rng = derive_rng(BENCH_SEED, "pairs", num_hosts)
        hosts = sorted(network.host_ids)
        pairs = [
            (pair_rng.choice(hosts), pair_rng.choice(hosts)) for _ in range(pairs_per_tick)
        ]
        started = time.perf_counter()
        for _ in range(ticks):
            scheduler.clock.advance(1.0)
            network.invalidate_routes(flush=flush_each_tick)
            for source, destination in pairs:
                if source != destination and network.is_reachable(source, destination):
                    network.router.route(source, destination)
        return time.perf_counter() - started, network.router.discoveries

    flush_seconds, flush_discoveries = churn(flush_each_tick=True)
    epoch_seconds, epoch_discoveries = churn(flush_each_tick=False)
    _RESULTS.setdefault("route_churn", {})[str(num_hosts)] = {
        "ticks": ticks,
        "pairs_per_tick": pairs_per_tick,
        "flush_seconds": flush_seconds,
        "flush_discoveries": flush_discoveries,
        "epoch_seconds": epoch_seconds,
        "epoch_discoveries": epoch_discoveries,
        "discoveries_saved": 1 - epoch_discoveries / flush_discoveries,
    }
    # The revalidating cache must eliminate a substantial share of
    # rediscoveries; at walking speeds most 150 m links survive a 1 s tick.
    assert epoch_discoveries < flush_discoveries * 0.5


def test_parallel_sweep_speedup():
    """A fig4-style sweep through the process-pool runner vs. sequential."""

    cores = os.cpu_count() or 1
    tasks = []
    for num_hosts in (2, 3, 4, 5):
        tasks.extend(
            sweep_tasks(
                series=f"{num_hosts} host",
                num_tasks=100,
                num_hosts=num_hosts,
                path_lengths=(2, 4, 6, 8),
                runs=3,
                seed=BENCH_SEED,
            )
        )
    sequential_runner = TrialRunner(parallel=False, timing="sim")
    started = time.perf_counter()
    sequential = sequential_runner.run(tasks)
    sequential_seconds = time.perf_counter() - started

    parallel_runner = TrialRunner(parallel=True, timing="sim", chunksize=2)
    started = time.perf_counter()
    parallel = parallel_runner.run(tasks)
    parallel_seconds = time.perf_counter() - started

    speedup = sequential_seconds / parallel_seconds
    _RESULTS["parallel_sweep"] = {
        "trials": len(tasks),
        "workers": parallel_runner.max_workers,
        "cores": cores,
        "sequential_seconds": sequential_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "pool_used": parallel_runner.parallel_batches > 0,
    }
    assert parallel == sequential  # identical results, whatever the schedule
    if cores < 4 or parallel_runner.sequential_fallbacks:
        pytest.skip(f"parallel speedup needs >=4 cores and a process pool (cores={cores})")
    assert speedup >= 2.0


# --- Fleet-scale vectorized kernels -----------------------------------------

VECTOR_POPULATIONS = (1000,) if FAST else (1000, 5000)


def _needs_numpy():
    from repro.net import kernels

    if not kernels.numpy_available():
        pytest.skip("vectorized kernels need NumPy")


def timed_snapshot_advance(network, scheduler, ticks: int) -> float:
    """Seconds to drag the snapshot through ``ticks`` movement ticks.

    One position probe per tick is enough to force the snapshot to catch
    up through the whole due-mover set; with ``pause=0.0`` random-waypoint
    walkers essentially every host is due every tick, so this times the
    advance machinery (position replay, grid moves, changed-pair diffing),
    not the query.
    """

    probe = sorted(network.host_ids)[0]
    with quiesced_gc():
        started = time.perf_counter()
        for _ in range(ticks):
            scheduler.clock.advance(1.0)
            network.position_of(probe)
        return time.perf_counter() - started


def scatter_positions(num_hosts: int) -> dict:
    site = square_site(SITE_SPACING * math.sqrt(num_hosts))
    return {
        f"h{index}": site.random_point(derive_rng(BENCH_SEED, "place", index))
        for index in range(num_hosts)
    }


@pytest.mark.parametrize("num_hosts", VECTOR_POPULATIONS)
def test_vectorized_snapshot_advance_speedup(num_hosts):
    _needs_numpy()
    ticks = 5 if FAST else 30
    timings = {}
    for label, vectorized in (("scalar", False), ("vectorized", True)):
        network, scheduler = build_network(
            num_hosts, use_spatial_index=True, mobile=True, vectorized=vectorized
        )
        network.neighbours_of("h0")  # build the initial snapshot off the clock
        timed_snapshot_advance(network, scheduler, 1)  # warm-up tick
        timings[label] = timed_snapshot_advance(network, scheduler, ticks)
    speedup = timings["scalar"] / timings["vectorized"]
    _RESULTS.setdefault("snapshot_advance", {})[str(num_hosts)] = {
        "ticks": ticks,
        "scalar_seconds": timings["scalar"],
        "vectorized_seconds": timings["vectorized"],
        "speedup": speedup,
    }
    floor = 2.0 if FAST else 5.0
    assert speedup >= floor, (
        f"vectorized snapshot advance only {speedup:.1f}x faster than scalar "
        f"at {num_hosts} hosts"
    )


@pytest.mark.parametrize("num_hosts", VECTOR_POPULATIONS)
def test_vectorized_neighbour_sweep_speedup(num_hosts):
    """Whole-population radio-disc sweep: find every in-range pair.

    The index-level microbenchmark of the pairwise-comparison kernel —
    each side answers the identical question (which host pairs sit within
    the radio range?) in its native form: the scalar grid runs one
    ``near`` query per host, the vectorized grid produces the pair arrays
    in a single batched gather/compare.
    """

    _needs_numpy()
    from repro.net import kernels
    from repro.net.spatial import SpatialGridIndex, padded_cell_size

    rounds = 2 if FAST else 3
    positions = scatter_positions(num_hosts)
    ids = sorted(positions)
    cell_size = padded_cell_size(RADIO_RANGE)
    scalar_grid = SpatialGridIndex(positions, cell_size=cell_size)
    vector_grid = kernels.VectorGridIndex(
        ids,
        [positions[host].x for host in ids],
        [positions[host].y for host in ids],
        cell_size,
    )
    with quiesced_gc():
        started = time.perf_counter()
        for _ in range(rounds):
            scalar_sweep = [
                scalar_grid.near(positions[host], RADIO_RANGE) for host in ids
            ]
        scalar_seconds = time.perf_counter() - started
    with quiesced_gc():
        started = time.perf_counter()
        for _ in range(rounds):
            queries, members = vector_grid.all_neighbour_pairs(RADIO_RANGE)
        vectorized_seconds = time.perf_counter() - started
    # Both sides swept the same pairs (scalar discs include the host itself).
    vector_pairs = set(zip(queries.tolist(), members.tolist()))
    scalar_pairs = {
        (query, vector_grid.index_of(member))
        for query, disc in enumerate(scalar_sweep)
        for member in disc
        if member != ids[query]
    }
    assert vector_pairs == scalar_pairs
    speedup = scalar_seconds / vectorized_seconds
    _RESULTS.setdefault("neighbour_sweep", {})[str(num_hosts)] = {
        "rounds": rounds,
        "pairs": len(vector_pairs),
        "scalar_seconds": scalar_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": speedup,
    }
    floor = 2.0 if FAST else 5.0
    assert speedup >= floor, (
        f"vectorized neighbour sweep only {speedup:.1f}x faster than scalar "
        f"at {num_hosts} hosts"
    )


def test_thousand_host_mobile_trial():
    """A 1000-host mobile end-to-end trial completes on the default flags.

    The fleet walks for 30 simulated seconds while the trial probes
    connectivity and routes between random pairs every tick — the full
    snapshot-advance → component-labels → route pipeline at a scale the
    scalar loops cannot sustain inside a CI budget.  ``vectorized=None``
    resolves to the kernels when NumPy is present and to the scalar paths
    otherwise, so the trial also documents that the flag surface degrades
    gracefully.
    """

    num_hosts, ticks, pairs_per_tick = 1000, 10 if FAST else 30, 20
    network, scheduler = build_network(num_hosts, use_spatial_index=True, mobile=True)
    pair_rng = derive_rng(BENCH_SEED, "trial-pairs", num_hosts)
    hosts = sorted(network.host_ids)
    routes = 0
    started = time.perf_counter()
    for _ in range(ticks):
        scheduler.clock.advance(1.0)
        network.is_connected()
        for _ in range(pairs_per_tick):
            source, destination = pair_rng.choice(hosts), pair_rng.choice(hosts)
            if source != destination and network.is_reachable(source, destination):
                network.router.route(source, destination)
                routes += 1
    elapsed = time.perf_counter() - started
    _RESULTS["mobile_trial_1000"] = {
        "hosts": num_hosts,
        "ticks": ticks,
        "pairs_per_tick": pairs_per_tick,
        "routes": routes,
        "vectorized": network.vectorized,
        "seconds": elapsed,
    }
    assert routes > 0
