"""Shared helpers for the benchmark suite.

Every benchmark follows the measurement protocol of the paper's Section 5:
the timed region starts when the specification is handed to the initiating
host and ends when every task of the constructed workflow has been
allocated.  Community construction (generating the supergraph, dealing the
fragments and services out to hosts) happens in the per-round setup and is
*not* measured, matching the paper.

The number of distinct path lengths / host counts swept here is a compact
subset of the full figures so that ``pytest benchmarks/ --benchmark-only``
finishes quickly; ``examples/run_experiments.py`` runs the complete sweeps
and prints the full figure tables.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro.experiments.trials import (
    adhoc_network_factory,
    build_trial_community,
    simulated_network_factory,
)
from repro.host.workspace import WorkflowPhase
from repro.sim.randomness import derive_rng
from repro.workloads.supergraph_gen import GeneratedWorkload, RandomSupergraphWorkload

BENCH_SEED = 20090514

_WORKLOAD_CACHE: dict[int, GeneratedWorkload] = {}


def pytest_collection_modifyitems(items) -> None:
    """Mark every timing benchmark (anything using the ``benchmark`` fixture)
    as ``slow`` so the tier-1 run collects this directory without paying for
    the pedantic rounds; run them with ``-m slow --benchmark-enable``."""

    for item in items:
        if "benchmark" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


def workload_for(num_tasks: int) -> GeneratedWorkload:
    """Generate (and cache) the random supergraph workload of a given size."""

    if num_tasks not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[num_tasks] = RandomSupergraphWorkload(seed=BENCH_SEED).generate(
            num_tasks
        )
    return _WORKLOAD_CACHE[num_tasks]


def make_allocation_setup(
    num_tasks: int,
    num_hosts: int,
    path_length: int,
    adhoc: bool = False,
):
    """Build a pedantic-benchmark ``setup``/``target`` pair for one data point.

    ``setup`` creates a fresh community and draws a fresh guaranteed-
    satisfiable specification; ``target`` submits the specification and pumps
    the discrete event scheduler until allocation completes.
    """

    workload = workload_for(num_tasks)
    if path_length > workload.max_path_length():
        pytest.skip(
            f"supergraph of {num_tasks} tasks has max path length "
            f"{workload.max_path_length()} < {path_length}"
        )
    spec_rng = derive_rng(BENCH_SEED, "bench-spec", num_tasks, num_hosts, path_length)
    factory = (
        adhoc_network_factory(BENCH_SEED) if adhoc else simulated_network_factory(BENCH_SEED)
    )
    counter = {"round": 0}

    def setup():
        counter["round"] += 1
        community = build_trial_community(
            workload, num_hosts, seed=BENCH_SEED + counter["round"], network_factory=factory
        )
        specification = workload.path_specification(path_length, spec_rng)
        assert specification is not None
        return (community, specification), {}

    def target(community, specification):
        workspace = community.submit_specification("host-0", specification)
        community.run_until_allocated(workspace)
        assert workspace.phase in (WorkflowPhase.EXECUTING, WorkflowPhase.COMPLETED)
        return workspace

    return setup, target


@contextmanager
def quiesced_gc():
    """Keep cyclic-collector pauses out of a timed region.

    One full collection first, then the collector stays off until the
    region ends: a generation-2 pass over the test session's live objects
    frees nothing, but landing inside one series of a wall-clock
    comparison it can cost more than the gap the comparison measures.
    """

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run_pedantic(benchmark, setup, target, rounds: int = 5):
    """Run a setup/target pair under pytest-benchmark with fixed rounds."""

    return benchmark.pedantic(target, setup=setup, rounds=rounds, iterations=1)
