"""Trial results must not depend on the interpreter's string hash seed.

Set and frozenset iteration order follows ``PYTHONHASHSEED``, and a local
pool's forked workers inherit their parent's seed, so a dependence on it
hides from every in-process and process-pool test.  This test runs one
small mixed task list in two fresh interpreters under different hash seeds
and requires every trial's pickled result to be identical.  The list covers
simulated Figure 4 and Figure 5 points, single-hop ad hoc trials over
random-waypoint hosts, multi-hop ad hoc trials over scattered hosts, and a
durable churn trial on a hostile network.  A past offender was the
construction engine's ``nodes_recolored`` counter, which followed frozenset
order (see ``WorkflowConstructor._propagate``).

A third interpreter selects the ``spawn`` start method before anything
else and runs the Figure 4 and 5 trials through a two-worker process pool,
so each worker is a fresh interpreter that imports the program and attaches
the shared input segment itself instead of inheriting a forked copy.  Its
per-trial pickles must equal the inline child's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
HASH_SEEDS = ("0", "1")

# Shared by both child scripts: the Figure 4 and 5 trial list, and one
# [label, produced, SHA-256 of the pickled result] row per trial.
FIGURE_TRIALS = r"""
import hashlib, json, pickle

from repro.experiments import TrialRunner, TrialTask, sweep_tasks

figure_tasks = [
    *sweep_tasks("fig4", num_tasks=100, num_hosts=4, path_lengths=(4, 8),
                 runs=1, seed=7),
    *sweep_tasks("fig5", num_tasks=250, num_hosts=2, path_lengths=(6,),
                 runs=2, seed=7),
]

def rows(trials):
    return [
        [label, result is not None, hashlib.sha256(pickle.dumps(result)).hexdigest()]
        for label, result in trials
    ]

def labelled(outcomes):
    return [
        (f"{o.task.series}/{o.task.path_length}/{o.task.repetition}", o.result)
        for o in outcomes
    ]
"""

# Runs in each hash-seed child interpreter.  Prints one JSON object: the
# hash of a fixed string (proof the seeds differ) and one row per trial.
CHILD = FIGURE_TRIALS + r"""
from repro.experiments.runner import workload_for
from repro.experiments.trials import run_churn_trial, simulated_network_factory
from repro.sim.randomness import derive_rng

tasks = [
    *figure_tasks,
    *(
        TrialTask("adhoc", 3, num_tasks=25, num_hosts=6, path_length=3,
                  repetition=rep, seed=7, network="adhoc", mobility="waypoint")
        for rep in range(2)
    ),
    *(
        TrialTask("multihop", 3, num_tasks=25, num_hosts=12, path_length=3,
                  repetition=rep, seed=7, network="adhoc-multihop", mobility="scatter")
        for rep in range(2)
    ),
]
trials = labelled(TrialRunner(parallel=False, timing="sim").run(tasks))
workload = workload_for(42, 30)
spec = workload.path_specification(4, derive_rng(42, "spec"))
churn = run_churn_trial(
    workload, 20, spec, seed=3,
    network_factory=simulated_network_factory(3), durability="memory",
)
trials.append(("churn/durable", churn.deterministic_copy()))
print(json.dumps({"hash": hash("repro"), "trials": rows(trials)}))
"""

# Runs the Figure 4 and 5 trials through a spawned two-worker pool.
SPAWN_CHILD = r"""
import multiprocessing
multiprocessing.set_start_method("spawn")
""" + FIGURE_TRIALS + r"""
runner = TrialRunner(max_workers=2, timing="sim")
trials = labelled(runner.run(figure_tasks))
print(json.dumps({
    "start_method": multiprocessing.get_start_method(),
    "workers_attached": runner.workers_attached,
    "trials": rows(trials),
}))
"""


def run_child(script: str, hash_seed: str) -> dict:
    """Run ``script`` in a fresh interpreter; return its last line as JSON."""

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, (
        f"PYTHONHASHSEED={hash_seed} child failed:\n{child.stderr}"
    )
    return json.loads(child.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict[str, dict]:
    """The inline child's report under each hash seed."""

    return {seed: run_child(CHILD, seed) for seed in HASH_SEEDS}


@pytest.fixture(scope="module")
def spawned() -> dict:
    """The spawned pool child's report, under the first hash seed."""

    return run_child(SPAWN_CHILD, HASH_SEEDS[0])


def test_children_really_ran_under_different_hash_seeds(runs):
    hashes = {seed: report["hash"] for seed, report in runs.items()}
    assert len(set(hashes.values())) == len(HASH_SEEDS), hashes


def test_every_trial_produced_a_result(runs):
    for seed, report in runs.items():
        missing = [label for label, produced, _ in report["trials"] if not produced]
        assert not missing, f"PYTHONHASHSEED={seed}: no result for {missing}"


def test_per_trial_results_identical_across_hash_seeds(runs):
    reference, other = (runs[seed]["trials"] for seed in HASH_SEEDS)
    assert [label for label, _, _ in reference] == [label for label, _, _ in other]
    diverged = [
        label
        for (label, _, digest), (_, _, again) in zip(reference, other)
        if digest != again
    ]
    assert not diverged, f"results depend on PYTHONHASHSEED: {diverged}"


def test_spawned_pool_matches_inline_child(runs, spawned):
    assert spawned["start_method"] == "spawn"
    assert spawned["workers_attached"] == 2
    trials = spawned["trials"]
    assert trials and all(produced for _, produced, _ in trials)
    # The inline child's list starts with the same Figure 4 and 5 trials.
    assert trials == runs[HASH_SEEDS[0]]["trials"][: len(trials)]
