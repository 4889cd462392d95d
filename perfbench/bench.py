"""Runs one workload: set-up, the timed closed loop, checks, and metrics.

``--trace 0`` runs time trials from outside with no wrapper installed.
``--trace 1`` alternates: every other trial runs with each layer's entry
points wrapped (see :mod:`tracing`), the rest without, so the per-layer
split and the tracing overhead come from the same run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import scenarios
import summary
import tracing

OUT = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("trial_ms.p50", "ms"),
    ("trial_ms.p90", "ms"),
    ("alloc_ms.p50", "ms"),
    ("alloc_ms.p90", "ms"),
    ("completion_rate", "ratio"),
    ("msgs_per_trial", "count"),
    ("bytes_per_trial", "B"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Printed and recorded but not gated: it is 0 on every zero-latency
#: Figure 4/5 trial, so the median of ``paper`` reads 0.
REPORTED_ONLY = (("sim_alloc_ms.p50", "ms"),)
#: What the ``sweep`` parent can see: no single trial's time.
SWEEP_METRICS = tuple(
    (name, unit) for name, unit in END_TO_END if not name.startswith("trial_ms")
)

#: Timings below this many samples cannot carry a p90 (see summary.py).
MIN_SAMPLES = summary.samples_needed(90)


# -- per-layer metrics ---------------------------------------------------------
def _specific(t) -> list[tuple[str, str, float]]:
    """The layer table's metrics; ``t`` reads per-trial totals."""

    reachable = t.calls("net.is_reachable")
    lookups = t.count("core.cache_hits") + t.count("core.cache_misses")
    return [
        ("sim.events", "count", t.calls("sim.step")),
        ("net.send.calls", "count", t.calls("net.send")),
        ("net.send.self_ms", "ms", t.self_ms("net.send")),
        ("net.is_reachable.calls", "count", reachable),
        ("net.is_reachable.ms", "ms", t.ms("net.is_reachable")),
        ("net.label_sweeps", "count", t.calls("net.label_sweep")),
        ("net.label_sweep.ms", "ms", t.ms("net.label_sweep")),
        (
            "net.sweeps_per_reachable",
            "ratio",
            t.calls("net.label_sweep") / reachable if reachable else 0.0,
        ),
        ("net.route_lookups", "count", t.calls("net.route_lookup")),
        ("net.fault_intercept.ms", "ms", t.ms("net.fault_intercept")),
        ("net.dropped", "count", t.count("net.dropped")),
        ("host.add_host.ms", "ms", t.ms("host.add_host")),
        ("host.restart.ms", "ms", t.ms("host.restart")),
        ("host.on_message.calls", "count", t.calls("host.on_message")),
        ("host.on_message.self_ms", "ms", t.self_ms("host.on_message")),
        ("discovery.add_fragment.calls", "count", t.calls("discovery.add_fragment")),
        ("discovery.add_fragment.ms", "ms", t.ms("discovery.add_fragment")),
        ("discovery.handle_query.ms", "ms", t.ms("discovery.handle_query")),
        ("discovery.handle_response.self_ms", "ms", t.self_ms("discovery.handle_response")),
        ("discovery.fragment_bytes", "B", t.count("discovery.fragment_bytes")),
        ("core.solve.calls", "count", t.calls("core.solve")),
        ("core.solve.ms", "ms", t.ms("core.solve")),
        (
            "core.cache_hit_ratio",
            "ratio",
            t.count("core.cache_hits") / lookups if lookups else 0.0,
        ),
        ("core.nodes_recolored", "count", t.count("core.nodes_recolored")),
        ("allocation.auction.ms", "ms", t.ms("allocation.auction")),
        ("allocation.bid.ms", "ms", t.ms("allocation.bid")),
        ("allocation.award.ms", "ms", t.ms("allocation.award")),
        ("allocation.retries", "count", t.count("allocation.retries")),
        ("allocation.reauctions", "count", t.count("allocation.reauctions")),
        ("scheduling.find_slot.calls", "count", t.calls("scheduling.find_slot")),
        ("scheduling.find_slot.ms", "ms", t.ms("scheduling.find_slot")),
        ("execution.watch.calls", "count", t.calls("execution.watch")),
        ("execution.labels.ms", "ms", t.ms("execution.labels")),
        ("execution.progress.ms", "ms", t.ms("execution.progress")),
        ("execution.replays", "count", t.calls("execution.replay")),
        ("execution.unexpected_labels", "count", t.count("execution.unexpected_labels")),
        ("durability.records", "count", t.calls("durability.append")),
        ("durability.record.ms", "ms", t.ms("durability.record")),
        ("durability.bytes", "B", t.count("durability.bytes")),
        ("durability.snapshots", "count", t.calls("durability.snapshot")),
        ("durability.restore.ms", "ms", t.ms("durability.restore")),
        (
            "durability.invocations_resumed",
            "count",
            t.count("durability.invocations_resumed"),
        ),
        ("experiments.run.ms", "ms", t.ms("experiments.run")),
        ("experiments.publish.ms", "ms", t.ms("experiments.publish")),
        ("experiments.shared_bytes", "B", t.count("experiments.shared_bytes")),
        ("experiments.workers_attached", "count", t.count("experiments.workers_attached")),
    ]


class PerTrial:
    """Span totals and boundary counts divided by the traced trial count."""

    def __init__(self, totals: dict, counts: dict, trials: int) -> None:
        self.totals, self.counts, self.trials = totals, counts, max(trials, 1)

    def _get(self, name: str) -> tracing.Totals:
        return self.totals.get(name, tracing.Totals())

    def calls(self, name: str) -> float:
        return self._get(name).calls / self.trials

    def ms(self, name: str) -> float:
        return self._get(name).ms / self.trials

    def self_ms(self, name: str) -> float:
        return self._get(name).self_ms / self.trials

    def count(self, name: str) -> float:
        return self.counts.get(name, 0) / self.trials


def layer_metrics(t: PerTrial, generate_ms: float, overhead: float) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""

    metrics = {name: (value, unit) for name, unit, value in _specific(t)}
    for layer in tracing.LAYERS:
        if layer == "workloads":  # runs only during set-up
            continue
        metrics[f"{layer}.calls"] = (t.calls(layer), "count")
        metrics[f"{layer}.ms"] = (t.ms(layer), "ms")
        metrics[f"{layer}.self_ms"] = (t.self_ms(layer), "ms")
    metrics["workloads.generate.ms"] = (generate_ms, "ms")
    metrics["other.self_ms"] = (t.self_ms("other"), "ms")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


#: The per-layer metrics no gated workload exercises (only ``sweep`` does).
SWEEP_ONLY_PREFIX = "experiments."


def per_layer_names() -> list[tuple[str, str]]:
    """Names and units of the gated per-layer metrics, in report order."""

    empty = PerTrial({}, {}, 1)
    return [
        (name, unit)
        for name, (_, unit) in layer_metrics(empty, 0.0, 0.0).items()
        if not name.startswith(SWEEP_ONLY_PREFIX)
    ]


# -- the run -------------------------------------------------------------------
@dataclass
class Report:
    """Everything one run measured; metrics are derived on demand."""

    workload: str
    round: int = 0
    attempted: int = 0
    failed: int = 0
    #: Untraced trials and the host seconds they took, for trials_per_s.
    timed_trials: int = 0
    timed_s: float = 0.0
    trial_s: list[float] = field(default_factory=list)
    alloc_s: list[float] = field(default_factory=list)
    first: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)
    peak_rss_kib: int = 0
    layers: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def samples(self) -> dict[str, int]:
        """Samples behind every percentile (and the round behind exact ones)."""

        return {
            "trial_ms": len(self.trial_s),
            "alloc_ms": len(self.alloc_s),
            "sim_alloc_ms": len(self._sim_alloc()),
            "round": len(self.first),
        }

    def _sim_alloc(self) -> list[float]:
        return [o.exact[3] * 1e3 for o in self.first if o is not None and o.exact[3] is not None]

    def end_to_end(self, names=None) -> dict:
        """End-to-end metrics; a percentile without support is left out."""

        if names is None:
            names = SWEEP_METRICS if self.workload == "sweep" else END_TO_END

        done = [o for o in self.first if o is not None]
        values = {
            "trials_per_s": self.timed_trials / self.timed_s if self.timed_s else None,
            "trial_ms.p50": summary.percentile([s * 1e3 for s in self.trial_s], 50),
            "trial_ms.p90": summary.percentile([s * 1e3 for s in self.trial_s], 90),
            "alloc_ms.p50": summary.percentile([s * 1e3 for s in self.alloc_s], 50),
            "alloc_ms.p90": summary.percentile([s * 1e3 for s in self.alloc_s], 90),
            "sim_alloc_ms.p50": summary.percentile(self._sim_alloc(), 50),
            "completion_rate": (
                sum(o.completed for o in done) / len(self.first) if self.first else None
            ),
            "msgs_per_trial": statistics.fmean(o.exact[1] for o in done) if done else None,
            "bytes_per_trial": statistics.fmean(o.exact[2] for o in done) if done else None,
            "setup_s": statistics.median(self.setup_samples) if self.setup_samples else None,
            "peak_rss_mb": self.peak_rss_kib / 1024.0,
        }
        return {
            name: (values[name], unit) for name, unit in names if values[name] is not None
        }

    def text(self, metrics: dict) -> str:
        lines = [
            f"workload {self.workload}: {self.attempted} trials attempted, "
            f"{self.failed} failed, round of {self.round}"
        ]
        lines += [f"  problem: {p}" for p in self.problems[:20]]
        shown = dict(metrics)
        if not self.layers:
            shown.update(self.end_to_end(REPORTED_ONLY))
        for name, (value, unit) in shown.items():
            lines.append(f"  {name:36s} {value:14.4f} {unit}")
        for name, (calls, ms, self_ms) in sorted(self.entries.items()):
            lines.append(
                f"  entry {name:30s} calls {calls:10.1f}  ms {ms:10.3f}  self_ms {self_ms:10.3f}"
            )
        return "\n".join(lines)


def _check(report: Report, index: int, problems: list[str]) -> None:
    if problems:
        report.failed += 1
        report.problems.extend(f"trial {index}: {p}" for p in problems)


def prepare(workload: str, seed: int, tracer=None) -> scenarios.Scenario:
    """Generate the inputs and warm up; traced when a tracer is given."""

    saved = tracing.install(tracer, tracing.entry_points()) if tracer else []
    try:
        scenario = scenarios.inline_scenario(workload, seed)
        for trial in scenario.warmup:
            scenario.judge(trial, scenario.execute(trial))
    finally:
        tracing.remove(saved)
    gc.collect()
    return scenario


def setup_only(workload: str, seed: int, started: float) -> float:
    if workload == "sweep":
        runner = scenarios.sweep_runner()
        try:
            runner.run(scenarios.sweep_inputs(seed))
        finally:
            runner.shutdown()
    else:
        prepare(workload, seed)
    return time.perf_counter() - started


def run(workload, seed, seconds, trace, started, hard_stop, timeout) -> Report:
    tracer = tracing.Tracer() if trace else None
    if workload == "sweep":
        report = run_sweep(seed, seconds, tracer, started, hard_stop, timeout)
    else:
        scenario = prepare(workload, seed, tracer)
        report = Report(workload, round=len(scenario.trials))
        report.setup_samples.append(time.perf_counter() - started)
        loop(scenario, report, seconds, hard_stop, timeout, tracer)
        report.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        attribute(report, tracer)
    return report


def loop(
    scenario, report, seconds, hard_stop, timeout, tracer, min_samples=MIN_SAMPLES
) -> None:
    """The closed loop: round after round of the scenario's trials.

    It stops at the first trial boundary after ``seconds`` once the first
    round (which the exact metrics describe) is complete and, untraced,
    once every timing has ``min_samples`` samples; at ``hard_stop`` it
    stops regardless.
    """

    entries = tracing.entry_points() if tracer else None
    trial_span = tracer.name_id(tracing.TRIAL) if tracer else None
    size = len(scenario.trials)
    report.first = [None] * size
    traced_s: list[float] = []
    vectorized = False
    begin = time.perf_counter()
    index = 0
    while True:
        rnd, position = divmod(index, size)
        trial = scenario.trials[position]
        # Alternate trial by trial, shifted each round, so every
        # configuration runs both traced and untraced over two rounds.
        traced = tracer is not None and (rnd + position) % 2 == 0
        report.attempted += 1
        try:
            saved = tracing.install(tracer, entries) if traced else []
            try:
                if traced:
                    tracer.trial_id = index
                    span = tracer.open(trial_span)
                run = scenario.execute(trial)
            finally:
                if traced:
                    tracer.close(span)
                    tracer.trial_id = tracing.NO_TRIAL
                tracing.remove(saved)
            outcome = scenario.judge(trial, run)
        except timeout:
            _check(report, index, ["hung: the run's alarm went off"])
            break
        except Exception as error:  # a trial that raises is a failed trial
            _check(report, index, [f"raised {type(error).__name__}: {error}"])
            outcome = None
        else:
            problems = list(outcome.problems)
            if rnd > 0 and report.first[position] is not None:
                problems += scenarios.check_repeat(report.first[position], outcome)
            _check(report, index, problems)
            vectorized |= outcome.vectorized
            if traced:
                traced_s.append(run.trial_s)
                for name, value in scenarios.program_counts(run.community).items():
                    tracer.counts[name] += value
            else:
                report.timed_trials += 1
                report.timed_s += run.trial_s
                report.trial_s.append(run.trial_s)
                if run.alloc_s is not None:
                    report.alloc_s.append(run.alloc_s)
        if rnd == 0:
            report.first[position] = outcome
        run = None  # let the trial's community go before the next is built
        index += 1
        now = time.perf_counter()
        if now >= hard_stop:
            break
        if now - begin < seconds or index < size:
            continue
        if tracer is None and min(len(report.trial_s), len(report.alloc_s)) < min_samples:
            continue
        break
    if index < size:
        report.problems.append(f"stopped after {index} of the first round's {size} trials")
    report.extra["vectorized"] = vectorized
    report.extra["loop_s"] = time.perf_counter() - begin
    if tracer is not None:
        report.extra["traced_trials"] = len(traced_s)
        report.extra["traced_trials_per_s"] = len(traced_s) / sum(traced_s) if traced_s else 0.0


def attribute(report: Report, tracer: tracing.Tracer) -> None:
    """Turn the traced run's spans into per-layer metrics and save them."""

    traced_ids = {i for i in set(tracer.trial) if i != tracing.NO_TRIAL}
    totals = tracing.aggregate(tracer, traced_ids)
    setup = tracing.aggregate(tracer, {tracing.NO_TRIAL})
    per_trial = PerTrial(totals, tracer.counts, report.extra["traced_trials"])
    traced_tps = report.extra["traced_trials_per_s"]
    untraced_tps = report.timed_trials / report.timed_s if report.timed_s else 0.0
    overhead = untraced_tps / traced_tps if traced_tps and untraced_tps else 0.0
    generate_ms = setup.get("workloads.generate", tracing.Totals()).ms
    metrics = layer_metrics(per_trial, generate_ms, overhead)
    if report.workload != "sweep":
        metrics = {
            name: value
            for name, value in metrics.items()
            if not name.startswith(SWEEP_ONLY_PREFIX)
        }
    report.layers = metrics
    report.entries = {
        name: (per_trial.calls(name), per_trial.ms(name), per_trial.self_ms(name))
        for name in tracer.names
    }
    report.extra["spans"] = len(tracer.start)
    report.extra["untraced_trials_per_s"] = untraced_tps
    tracer.write(OUT / f"spans-{report.workload}.tsv.gz")


# -- sweep: the process-pool runner, seen from its parent ----------------------
def run_sweep(seed, seconds, tracer, started, hard_stop, timeout) -> Report:
    saved = tracing.install(tracer, tracing.entry_points()) if tracer else []
    try:
        tasks = scenarios.sweep_inputs(seed)
    finally:
        tracing.remove(saved)
    report = Report("sweep", round=len(tasks))
    runner = scenarios.sweep_runner()
    entries = tracing.entry_points() if tracer else None
    traced_s: list[float] = []
    traced_trials = 0
    try:
        runner.run(tasks)  # starts the pool: set-up, not measured
        gc.collect()
        report.setup_samples.append(time.perf_counter() - started)
        begin = time.perf_counter()
        rnd = 0
        while True:
            traced = tracer is not None and rnd % 2 == 0
            attached = runner.workers_attached
            saved = tracing.install(tracer, entries) if traced else []
            try:
                if traced:
                    tracer.trial_id = rnd
                    span = tracer.open(tracer.name_id(tracing.TRIAL))
                round_started = time.perf_counter()
                outcomes = runner.run(tasks)
                elapsed = time.perf_counter() - round_started
            except timeout:
                _check(report, rnd, ["hung: the run's alarm went off"])
                break
            finally:
                if traced:
                    tracer.close(span)
                    tracer.trial_id = tracing.NO_TRIAL
                tracing.remove(saved)
            report.attempted += len(tasks)
            problems = scenarios.sweep_problems(tasks, outcomes)
            results = [o.result for o in outcomes]
            exact = [
                None if r is None else scenarios.TrialOutcome(
                    completed=r.succeeded,
                    exact=(r.succeeded, r.messages_sent, r.bytes_sent, r.sim_seconds),
                )
                for r in results
            ]
            if rnd == 0:
                report.first = exact
            else:
                for first, again in zip(report.first, exact):
                    if first is not None and again is not None:
                        problems += scenarios.check_repeat(first, again)
            _check(report, rnd, problems)
            if traced:
                traced_s.append(elapsed)
                traced_trials += len(tasks)
                tracer.counts["experiments.workers_attached"] += (
                    runner.workers_attached - attached
                )
            else:
                report.timed_trials += len(tasks)
                report.timed_s += elapsed
                # The workers' own submit-to-allocated host time.
                report.alloc_s.extend(r.wall_seconds for r in results if r and r.succeeded)
            rnd += 1
            now = time.perf_counter()
            if now >= hard_stop or (now - begin >= seconds and rnd >= 2):
                break
    finally:
        runner.shutdown()
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Parent plus every worker at the largest worker's peak: an upper bound.
    report.peak_rss_kib = self_kib + scenarios.SWEEP_WORKERS * worker_kib
    if tracer is not None:
        report.extra["traced_trials"] = traced_trials
        report.extra["traced_trials_per_s"] = traced_trials / sum(traced_s) if traced_s else 0.0
    report.extra["workers"] = scenarios.SWEEP_WORKERS
    return report

