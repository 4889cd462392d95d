"""A finished community is freed by reference counting alone.

The experiments build a fresh :class:`~repro.host.community.Community` per
trial and drop it afterwards.  Each test here runs one finished trial with
the cyclic collector disabled, drops the community and its workspace, and
then requires that weak references to the community's scheduler, its
network and every host incarnation it built (crashed ones included) are
dead, and that the next collection finds no garbage at all: nothing a
trial leaves behind waits for the cyclic collector.

The trials cover a Figure 4 trial on the simulated network, a Figure 6
trial on the single-hop ad hoc network, a multi-hop trial over random
waypoint hosts, a durable churn trial that crashes and restarts hosts, and
a community dropped while a crash is still scheduled.
"""

from __future__ import annotations

import functools
import gc
import math
import random
import weakref

import pytest

from repro.experiments import (
    adhoc_network_factory,
    build_trial_community,
    simulated_network_factory,
)
from repro.host.community import Community
from repro.mobility.geometry import square_site
from repro.mobility.models import RandomWaypointMobility
from repro.net.faults import FaultPlane, HostCrash, LinkFaultPolicy
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

from ..lifetime import recording_incarnations

SUPERGRAPH_SEED = 2009


@functools.cache
def workload_of(num_tasks: int):
    return RandomSupergraphWorkload(seed=SUPERGRAPH_SEED).generate(num_tasks)


def specification_of(num_tasks: int, path_length: int, name: str):
    specification = workload_of(num_tasks).path_specification(
        path_length, random.Random(f"lifetime/{name}")
    )
    assert specification is not None
    return specification


def churn_community(seed: int, crashes: tuple[HostCrash, ...]) -> Community:
    community = build_trial_community(
        workload_of(30),
        10,
        seed,
        network_factory=simulated_network_factory(seed),
        fault_injection=True,
        enable_recovery=True,
        max_repair_attempts=6,
        durability="memory",
    )
    community.install_fault_plane(
        FaultPlane(
            seed=seed,
            default_policy=LinkFaultPolicy(
                drop_probability=0.1, duplicate_probability=0.02
            ),
            crashes=crashes,
        )
    )
    return community


def figure4():
    community = build_trial_community(
        workload_of(100), 15, 41, network_factory=simulated_network_factory(41)
    )
    workspace = community.submit_specification(
        "host-3", specification_of(100, 10, "figure4")
    )
    community.run_until_allocated(workspace)
    assert workspace.is_allocated, workspace.failure_reason
    return community, workspace


def figure6_single_hop():
    community = build_trial_community(
        workload_of(100), 4, 61, network_factory=adhoc_network_factory(61)
    )
    workspace = community.submit_specification(
        "host-1", specification_of(100, 8, "figure6")
    )
    community.run_until_allocated(workspace)
    assert workspace.is_allocated, workspace.failure_reason
    return community, workspace


def multi_hop_waypoints():
    site = square_site(60.0 * math.sqrt(100))
    community = build_trial_community(
        workload_of(50),
        100,
        1,
        network_factory=adhoc_network_factory(1, multi_hop=True),
        mobility_factory=lambda index: RandomWaypointMobility(
            site, seed=256 + index
        ),
    )
    workspace = community.submit_specification(
        "host-0", specification_of(50, 4, "multi-hop")
    )
    community.run_until_allocated(workspace)
    assert workspace.is_allocated, workspace.failure_reason
    assert community.network.router.discoveries > 0
    return community, workspace


def durable_churn():
    # host-6 dies while its invocation still waits for a dropped input,
    # before its first pull (36.8 s) would fetch it, so the restarted
    # incarnation resumes that invocation from the journal.
    community = churn_community(
        5,
        (
            HostCrash(host_id="host-3", crash_at=15.0, restart_at=75.0),
            HostCrash(host_id="host-6", crash_at=35.0, restart_at=95.0),
        ),
    )
    workspace = community.submit_specification(
        "host-0", specification_of(30, 3, "churn-5")
    )
    community.run_idle(max_sim_seconds=10_000.0)
    assert community.hosts_crashed == community.hosts_restarted == 2
    assert sum(host.execution_manager.invocations_resumed for host in community) > 0
    assert community.scheduler.peek_time() is None
    return community, workspace


def crash_still_pending():
    community = churn_community(
        8, (HostCrash(host_id="host-4", crash_at=5_000.0, restart_at=5_060.0),)
    )
    workspace = community.submit_specification(
        "host-0", specification_of(30, 3, "pending-crash")
    )
    community.run_until_allocated(workspace)
    assert workspace.is_allocated, workspace.failure_reason
    assert community.hosts_crashed == 0
    assert community.scheduler.peek_time() is not None
    return community, workspace


TRIALS = {
    "figure4": figure4,
    "figure6-single-hop": figure6_single_hop,
    "multi-hop-waypoints": multi_hop_waypoints,
    "durable-churn": durable_churn,
    "crash-still-pending": crash_still_pending,
}


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_finished_community_is_freed_without_the_collector(name):
    for num_tasks in (100, 50, 30):
        workload_of(num_tasks)
    gc.collect()
    gc.disable()
    try:
        with recording_incarnations() as incarnations:
            community, workspace = TRIALS[name]()
        assert len(incarnations) == len(community) + community.hosts_restarted
        scheduler = weakref.ref(community.scheduler)
        network = weakref.ref(community.network)
        community = workspace = None

        assert scheduler() is None
        assert network() is None
        assert [ref for ref in incarnations if ref() is not None] == []
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dropped_community_removes_its_temporary_journal_directories():
    gc.collect()
    gc.disable()
    try:
        community = Community()
        for host_id in ("a", "b", "c"):
            community.add_host(host_id, durability="sqlite")
        directories = {
            host.host_id: host.durability.backend.directory for host in community
        }
        # Each host journaled its first fragment epoch when it was built.
        assert all(any(path.iterdir()) for path in directories.values())

        community.remove_host("c")
        assert not directories["c"].exists()
        assert directories["a"].is_dir() and directories["b"].is_dir()

        community = None
        assert [path for path in directories.values() if path.exists()] == []
    finally:
        gc.enable()
