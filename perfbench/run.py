"""The repository's benchmark: one command, seeded workloads, outside-in timing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload churn --trace 1       # per-layer trace

The workloads (see ``perfbench/README.md``) run inline in this process as
closed loops: the next trial starts when the previous one ends, and the
loop cycles through one shuffled round of seeded trial configurations so a
slow stretch of the machine hits every configuration alike.  Imports, input
generation and warm-up happen before the timed loop and are reported as
``setup_s``.  The last line printed is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  The line before it (``record {...}``) is the run record.
The exit status is non-zero when any output check failed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: The run's hash seed: set iteration order (and with it the order of some
#: protocol steps) must not change between runs of one seed.
HASH_SEED = "0"

#: Workloads the gated benchmark runs (BENCHMARK.json lists the same).
WORKLOADS = ("paper", "mobile", "churn")
#: Runnable but not gated: its parent cannot time single trials.
EXTRA_WORKLOADS = ("sweep",)

#: Set-up is repeated in this many fresh interpreters besides the run's own.
SETUP_PROBES = 2

#: The run stops its timed loop by this many seconds after start, whatever
#: else it still wants, and gives up on a hung trial after ``ALARM_S``.
HARD_STOP_S = 120.0
ALARM_S = 165


class RunTimeout(Exception):
    """The run outlived its alarm: a trial hung."""


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {ALARM_S} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, print the set-up seconds and exit (used by the run itself)",
    )
    return parser.parse_args(argv)


def pin_hash_seed(argv) -> None:
    """Re-execute this script under the fixed hash seed when it is not set."""

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__)), *argv], env)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    pin_hash_seed(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import bench
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"setup_s {bench.setup_only(args.workload, args.seed, STARTED)!r}")
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ALARM_S)
    try:
        report = bench.run(
            args.workload,
            args.seed,
            args.seconds,
            trace=bool(args.trace),
            started=STARTED,
            hard_stop=STARTED + HARD_STOP_S,
            timeout=RunTimeout,
        )
        if not args.trace and report.correct:
            report.setup_samples.extend(probe_setup(args.workload, args.seed))
    finally:
        signal.alarm(0)
    metrics = report.layers if args.trace else report.end_to_end()
    record = dict(
        run_record(args),
        trials=report.timed_trials,
        round=report.round,
        samples=report.samples,
        setup_samples=report.setup_samples,
        **report.extra,
    )
    print(report.text(metrics))
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if report.correct else 1


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set up again in fresh interpreters: imports, inputs and warm-up."""

    samples = []
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    command = [sys.executable, str(Path(__file__)), "--workload", workload]
    command += ["--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_record(args) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def run_all(args) -> int:
    """Run every gated workload in its own process, then sum up."""

    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__)), "--workload", workload]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=180)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            status = done.returncode or 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status if status else (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
