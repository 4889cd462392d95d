#!/usr/bin/env python3
"""Regenerate the paper's evaluation figures (Figures 4, 5, and 6).

Usage::

    python examples/run_experiments.py                 # all figures, quick settings
    python examples/run_experiments.py fig4            # only Figure 4
    python examples/run_experiments.py fig5 fig6       # a subset
    python examples/run_experiments.py all --runs 20   # more repetitions per point
    python examples/run_experiments.py ablations       # discovery/policy/baseline ablations
    python examples/run_experiments.py all --csv out/  # also write CSV files
    python examples/run_experiments.py all --parallel  # fan trials across all cores
    python examples/run_experiments.py scaling         # multi-hop ad hoc, 20-200 mobile hosts

The paper averages 1000 runs per point; pass ``--runs 1000`` to match (it
takes a while).  Each figure is printed as a table whose rows are path
lengths and whose columns are the figure's series, i.e. the same structure
as the plots in the paper.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.reporting import FigureResult, comparison_table
from repro.experiments import (
    TrialRunner,
    run_adhoc_scaling,
    run_baseline_comparison,
    run_discovery_ablation,
    run_figure4,
    run_figure5,
    run_figure6,
    run_policy_ablation,
)


def emit(figure: FigureResult, csv_dir: Path | None, filename: str) -> None:
    print(figure.to_table())
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
        path = csv_dir / filename
        path.write_text(figure.to_csv(), encoding="utf-8")
        print(f"    (written to {path})")
    print()


def run_ablation_reports() -> None:
    discovery = run_discovery_ablation()
    rows = [
        (
            f"{p.num_tasks} tasks / path {p.path_length}",
            {
                "batch fragments": p.batch_fragments,
                "incremental fragments": p.incremental_fragments,
                "queries": p.incremental_queries,
                "savings": f"{p.transfer_savings:.0%}",
            },
        )
        for p in discovery
    ]
    print(
        comparison_table(
            "Ablation: batch vs incremental fragment discovery (fragments transferred)",
            rows,
            ["batch fragments", "incremental fragments", "queries", "savings"],
        )
    )

    policy = run_policy_ablation()
    rows = [
        (
            f"{p.policy} / path {p.path_length}",
            {
                "allocation seconds": f"{p.allocation_seconds:.4f}",
                "distinct winners": p.distinct_winners,
                "succeeded": p.succeeded,
            },
        )
        for p in policy
    ]
    print(
        comparison_table(
            "Ablation: auction bid-selection policies (100 tasks, 5 hosts)",
            rows,
            ["allocation seconds", "distinct winners", "succeeded"],
        )
    )

    baseline = run_baseline_comparison()
    rows = [
        (
            p.scenario,
            {
                "open workflow": "ok" if p.open_workflow_succeeded else "FAILS",
                "static workflow": "ok" if p.static_workflow_succeeded else "FAILS",
                "tasks constructed": p.open_workflow_tasks,
            },
        )
        for p in baseline
    ]
    print(
        comparison_table(
            "Baseline contrast: open workflow vs statically designed workflow "
            "(catering scenarios under participant absence)",
            rows,
            ["open workflow", "static workflow", "tasks constructed"],
        )
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "figures",
        nargs="*",
        default=["all"],
        help="which experiments to run: fig4, fig5, fig6, scaling, ablations, or all",
    )
    parser.add_argument("--runs", type=int, default=None, help="repetitions per data point")
    parser.add_argument("--seed", type=int, default=20090514, help="master random seed")
    parser.add_argument("--csv", type=Path, default=None, help="directory for CSV output")
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="fan independent trials across a process pool (all cores)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="process count for --parallel"
    )
    args = parser.parse_args()
    if args.parallel or args.workers is not None:
        runner = TrialRunner(max_workers=args.workers)
    else:
        runner = None

    wanted = {name.lower() for name in (args.figures or ["all"])}
    run_everything = "all" in wanted or not wanted

    # One runner (and hence one process pool, forked lazily on the first
    # parallel sweep) serves every figure; the try/finally releases the
    # workers when the last figure is done.
    try:
        if run_everything or "fig4" in wanted:
            emit(
                run_figure4(
                    runs=args.runs,
                    seed=args.seed,
                    runner=runner,
                ),
                args.csv,
                "figure4.csv",
            )
        if run_everything or "fig5" in wanted:
            emit(
                run_figure5(
                    runs=args.runs,
                    seed=args.seed,
                    runner=runner,
                ),
                args.csv,
                "figure5.csv",
            )
        if run_everything or "fig6" in wanted:
            emit(
                run_figure6(
                    runs=args.runs,
                    seed=args.seed,
                    runner=runner,
                ),
                args.csv,
                "figure6.csv",
            )
        if run_everything or "scaling" in wanted:
            emit(
                run_adhoc_scaling(
                    runs=args.runs,
                    seed=args.seed,
                    runner=runner,
                ),
                args.csv,
                "adhoc_scaling.csv",
            )
        if run_everything or "ablations" in wanted:
            run_ablation_reports()
    finally:
        if runner is not None:
            runner.shutdown()


if __name__ == "__main__":
    main()
