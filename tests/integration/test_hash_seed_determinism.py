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
order (see ``WorkflowConstructor._seed_triggers``).
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

# Runs in each child interpreter.  Prints one JSON object: the hash of a
# fixed string (proof the seeds differ) and, per trial, its label, whether
# it produced a result, and the SHA-256 of its pickled result.
CHILD = r"""
import hashlib, json, pickle

from repro.experiments import TrialRunner, TrialTask, sweep_tasks
from repro.experiments.runner import workload_for
from repro.experiments.trials import run_churn_trial, simulated_network_factory
from repro.sim.randomness import derive_rng

tasks = [
    *sweep_tasks("fig4", num_tasks=100, num_hosts=4, path_lengths=(4, 8),
                 runs=1, seed=7),
    *sweep_tasks("fig5", num_tasks=250, num_hosts=2, path_lengths=(6,),
                 runs=2, seed=7),
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
trials = [
    (f"{o.task.series}/{o.task.path_length}/{o.task.repetition}", o.result)
    for o in TrialRunner(parallel=False, timing="sim").run(tasks)
]
workload = workload_for(42, 30)
spec = workload.path_specification(4, derive_rng(42, "spec"))
churn = run_churn_trial(
    workload, 20, spec, seed=3,
    network_factory=simulated_network_factory(3), durability="memory",
)
trials.append(("churn/durable", churn.deterministic_copy()))
print(json.dumps({
    "hash": hash("repro"),
    "trials": [
        [label, result is not None, hashlib.sha256(pickle.dumps(result)).hexdigest()]
        for label, result in trials
    ],
}))
"""


@pytest.fixture(scope="module")
def runs() -> dict[str, dict]:
    """The child's report under each hash seed."""

    reports = {}
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert child.returncode == 0, (
            f"PYTHONHASHSEED={seed} child failed:\n{child.stderr}"
        )
        reports[seed] = json.loads(child.stdout.strip().splitlines()[-1])
    return reports


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
