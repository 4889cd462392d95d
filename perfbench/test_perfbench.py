"""Tests for the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import run as command
import scenarios
import summary
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# -- percentiles only with support ---------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert summary.samples_needed(50) == 20
    assert summary.samples_needed(90) == 100
    assert summary.percentile(list(range(19)), 50) is None
    assert summary.percentile(list(range(20)), 50) == 9
    assert summary.percentile(list(range(99)), 90) is None
    assert summary.percentile(list(range(100)), 90) == 89
    assert summary.percentile([], 50) is None


def test_percentile_is_nearest_rank_of_the_sorted_samples():
    values = [float(v) for v in reversed(range(1, 201))]
    assert summary.percentile(values, 50) == 100.0
    assert summary.percentile(values, 90) == 180.0
    assert summary.beyond(200, 90) == 20


def test_an_unsupported_percentile_is_left_out_not_filled_in():
    report = bench.Report("paper", trial_s=[0.01] * 50, alloc_s=[0.005] * 50)
    metrics = report.end_to_end()
    assert "trial_ms.p50" in metrics and "alloc_ms.p50" in metrics
    assert "trial_ms.p90" not in metrics and "alloc_ms.p90" not in metrics


# -- self time on a hand-built span tree ------------------------------------------
def test_self_time_subtracts_direct_children_and_sums_to_the_trial():
    tracer = tracing.Tracer()
    tracer.trial_id = 7
    trial = tracer.add(tracing.TRIAL, 0.000, 0.100)
    tracer.add("net.send", 0.010, 0.030, parent=trial)
    message = tracer.add("host.on_message", 0.040, 0.090, parent=trial)
    outer = tracer.add("net.send", 0.050, 0.060, parent=message)
    tracer.add("net.send", 0.052, 0.055, parent=outer)  # send inside send

    totals = tracing.aggregate(tracer, {7})

    assert totals["other"].self_ms == pytest.approx(30.0)
    assert totals["host.on_message"].self_ms == pytest.approx(40.0)
    assert totals["net.send"].self_ms == pytest.approx(20.0 + 7.0 + 3.0)
    # The nested send is part of its outer call, not a call of its own.
    assert totals["net.send"].calls == 2
    assert totals["net.send"].ms == pytest.approx(20.0 + 10.0)
    assert totals["net"].ms == pytest.approx(30.0)
    assert totals["host"].ms == pytest.approx(50.0)
    self_sum = sum(totals[layer].self_ms for layer in ("other", "host", "net"))
    assert self_sum == pytest.approx(100.0)


def test_aggregate_keeps_spans_of_other_trials_out():
    tracer = tracing.Tracer()
    tracer.add("workloads.generate", 0.0, 0.5)  # set-up: no trial
    tracer.trial_id = 0
    tracer.add(tracing.TRIAL, 1.0, 1.2)
    assert "workloads.generate" not in tracing.aggregate(tracer, {0})
    setup = tracing.aggregate(tracer, {tracing.NO_TRIAL})
    assert setup["workloads.generate"].ms == pytest.approx(500.0)


# -- the tracer leaves no trace ---------------------------------------------------
def test_install_then_remove_restores_every_wrapped_attribute():
    entries = tracing.entry_points()
    before = {(entry.owner, entry.attr): vars(entry.owner)[entry.attr] for entry in entries}
    assert len(before) == len(entries), "an attribute is listed twice"

    saved = tracing.install(tracing.Tracer(), entries)
    try:
        for (owner, attr), original in before.items():
            wrapper = vars(owner)[attr]
            assert wrapper is not original
            assert wrapper.__wrapped__ is original
    finally:
        tracing.remove(saved)

    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"


def test_entry_points_cover_every_layer():
    layers = {entry.name.split(".", 1)[0] for entry in tracing.entry_points()}
    assert layers == set(tracing.LAYERS)


# -- tracing does not change what the program computes ------------------------------
def _exact(report: bench.Report) -> dict:
    names = (
        ("completion_rate", ""),
        ("msgs_per_trial", ""),
        ("bytes_per_trial", ""),
        ("sim_alloc_ms.p50", ""),
    )
    return {
        "metrics": report.end_to_end(names),
        "records": [outcome.exact for outcome in report.first],
    }


def _one_round(workload: str, seed: int, size: int, tracer=None) -> bench.Report:
    scenario = bench.prepare(workload, seed, tracer)
    scenario.trials = scenario.trials[:size]
    report = bench.Report(workload, round=size)
    bench.loop(scenario, report, 0.0, float("inf"), TimeoutError, tracer, min_samples=0)
    assert report.correct, report.problems
    return report


@pytest.mark.parametrize("workload, size", [("paper", 8), ("churn", 20)])
def test_traced_run_reproduces_the_untraced_exact_metrics(workload, size):
    untraced = _one_round(workload, 3, size)
    tracer = tracing.Tracer()
    traced = _one_round(workload, 3, size, tracer)

    assert _exact(traced) == _exact(untraced)
    on_message = tracer.name_id("host.on_message")
    assert on_message in tracer.entry, "handlers bound at host build were not wrapped"


def test_exact_metrics_repeat_under_one_seed_and_change_under_another():
    first = _exact(_one_round("churn", 5, 20))
    again = _exact(_one_round("churn", 5, 20))
    other = _exact(_one_round("churn", 6, 20))
    assert first == again
    assert first != other


def test_inputs_come_from_the_seed_alone():
    trials, _ = scenarios.churn_inputs(9)
    again, _ = scenarios.churn_inputs(9)
    describe = lambda ts: [(t.specification, t.seed, t.initiator, t.crashes) for t in ts]
    assert describe(trials) == describe(again)


def test_a_repeat_that_differs_is_a_failed_check():
    first = scenarios.TrialOutcome(completed=True, exact=(True, 10, 100, 0.0))
    again = scenarios.TrialOutcome(completed=True, exact=(True, 11, 100, 0.0))
    assert scenarios.check_repeat(first, first) == []
    assert scenarios.check_repeat(first, again)


# -- the command and its declaration -------------------------------------------------
def test_benchmark_json_declares_what_the_command_prints():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(command.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == (
        bench.per_layer_names()
    )


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
