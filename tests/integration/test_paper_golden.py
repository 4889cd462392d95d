"""Golden values for the paper's Figure 4, 5 and 6 trials.

Seeded points of the three sweeps of the paper's Section 5 run through
:func:`run_allocation_trial` on the repository benchmark's fixed
supergraphs: a 15-host Figure 4 point, a 500-task and a 250-task Figure 5
point on the simulated network, and a Figure 6 point on the single-hop ad
hoc 802.11g model.  Their message and byte counts, simulated allocation
time, allocation, ``nodes_recolored`` and workflow task set must equal
values recorded before construction coloured the supergraph over integer
node ids.

``nodes_recolored`` follows the order in which the exploration visits
nodes, not only what it colours, so a change to that order moves it even
when every workflow, route and allocation stays put.  The hash-seed and
determinism suites only compare the code with itself; these values fix
what it computes.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.experiments import (
    adhoc_network_factory,
    build_trial_community,
    simulated_network_factory,
)
from repro.experiments.trials import run_allocation_trial
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

SUPERGRAPH_SEED = 2009

#: name -> (figure, supergraph tasks, hosts, path length, trial seed).
POINTS = {
    "fig4-100-tasks-15-hosts": ("fig4", 100, 15, 10, 41),
    "fig5-500-tasks": ("fig5", 500, 2, 12, 51),
    "fig5-250-tasks": ("fig5", 250, 2, 8, 52),
    "fig6-100-tasks-adhoc": ("fig6", 100, 4, 8, 61),
}

#: name -> (messages, bytes, simulated allocation seconds, nodes_recolored,
#: allocation, workflow tasks).
GOLDEN = {
    "fig4-100-tasks-15-hosts": (
        66,
        55704,
        0.0,
        160,
        (
            ("task-13", "host-3"),
            ("task-22", "host-5"),
            ("task-24", "host-14"),
            ("task-41", "host-14"),
            ("task-47", "host-8"),
            ("task-5", "host-11"),
            ("task-58", "host-3"),
            ("task-69", "host-2"),
            ("task-70", "host-6"),
            ("task-87", "host-10"),
        ),
        (
            "task-13", "task-22", "task-24", "task-41", "task-47",
            "task-5", "task-58", "task-69", "task-70", "task-87",
        ),
    ),
    "fig5-500-tasks": (
        8,
        68152,
        0.0,
        749,
        (
            ("task-115", "host-0"),
            ("task-14", "host-0"),
            ("task-143", "host-0"),
            ("task-161", "host-0"),
            ("task-275", "host-1"),
            ("task-276", "host-1"),
            ("task-294", "host-1"),
            ("task-302", "host-1"),
            ("task-328", "host-0"),
            ("task-361", "host-0"),
            ("task-401", "host-1"),
            ("task-429", "host-1"),
        ),
        (
            "task-115", "task-14", "task-143", "task-161", "task-275", "task-276",
            "task-294", "task-302", "task-328", "task-361", "task-401", "task-429",
        ),
    ),
    "fig5-250-tasks": (
        8,
        35648,
        0.0,
        71,
        (
            ("task-145", "host-1"),
            ("task-156", "host-0"),
            ("task-174", "host-0"),
            ("task-181", "host-0"),
            ("task-222", "host-1"),
            ("task-235", "host-0"),
            ("task-5", "host-0"),
            ("task-73", "host-1"),
        ),
        (
            "task-145", "task-156", "task-174", "task-181",
            "task-222", "task-235", "task-5", "task-73",
        ),
    ),
    "fig6-100-tasks-adhoc": (
        17,
        26744,
        0.009904675644549329,
        155,
        (
            ("task-14", "host-1"),
            ("task-16", "host-1"),
            ("task-27", "host-2"),
            ("task-31", "host-2"),
            ("task-34", "host-1"),
            ("task-47", "host-0"),
            ("task-52", "host-1"),
            ("task-80", "host-2"),
        ),
        (
            "task-14", "task-16", "task-27", "task-31",
            "task-34", "task-47", "task-52", "task-80",
        ),
    ),
}

@functools.cache
def workload_of(num_tasks: int):
    return RandomSupergraphWorkload(seed=SUPERGRAPH_SEED).generate(num_tasks)


def trial_inputs(name: str):
    figure, num_tasks, num_hosts, path_length, seed = POINTS[name]
    workload = workload_of(num_tasks)
    rng = random.Random(f"paper-golden/{name}")
    specification = workload.path_specification(path_length, rng)
    assert specification is not None
    if figure == "fig6":
        network_factory = adhoc_network_factory(seed)
    else:
        network_factory = simulated_network_factory(seed)
    return dict(
        workload=workload,
        num_hosts=num_hosts,
        specification=specification,
        seed=seed,
        network_factory=network_factory,
        initiator_index=rng.randrange(num_hosts),
    )


def allocation_and_workflow_of(name: str):
    """The allocation and workflow, from the calls run_allocation_trial makes."""

    inputs = trial_inputs(name)
    community = build_trial_community(
        inputs["workload"],
        inputs["num_hosts"],
        inputs["seed"],
        network_factory=inputs["network_factory"],
    )
    initiator = f"host-{inputs['initiator_index'] % inputs['num_hosts']}"
    workspace = community.submit_specification(initiator, inputs["specification"])
    community.run_until_allocated(workspace, max_sim_seconds=3_600.0)
    assert workspace.is_allocated, workspace.failure_reason
    allocation = tuple(sorted(workspace.allocation_outcome.allocation.items()))
    return allocation, tuple(sorted(workspace.workflow.task_names))


def observed(name: str):
    result = run_allocation_trial(**trial_inputs(name))
    assert result.succeeded, result.failure_reason
    allocation, workflow_tasks = allocation_and_workflow_of(name)
    assert len(workflow_tasks) == result.workflow_tasks
    return (
        result.messages_sent,
        result.bytes_sent,
        result.sim_seconds,
        result.nodes_recolored,
        allocation,
        workflow_tasks,
    )


@pytest.mark.parametrize("name", sorted(POINTS))
def test_paper_trial_matches_recorded_values(name):
    assert observed(name) == GOLDEN[name]
