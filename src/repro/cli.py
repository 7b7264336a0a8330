"""Command-line interface: regenerate any figure of the paper from a terminal.

Examples
--------
Regenerate the motivating example (Figures 2 and 3)::

    soar-repro fig2
    soar-repro fig3

Regenerate Figure 6 at a reduced scale and write the series as CSV::

    soar-repro fig6 --quick --csv /tmp/fig6.csv

Run everything the paper reports (this takes a while at full scale)::

    soar-repro all --quick

Drive the multi-tenant placement service with a churn trace (generated on
the fly, or recorded/replayed as JSON-lines), reporting throughput, latency
and cache hit-rate::

    soar-repro serve-replay --requests 200 --network-size 1024
    soar-repro serve-replay --record /tmp/churn.jsonl
    soar-repro serve-replay --trace /tmp/churn.jsonl --verify

Drive it concurrently, journal the churn, snapshot the final fleet, and
later resume from the snapshot (the journal tail is replayed on restore)::

    soar-repro serve-replay --workers 4 --verify
    soar-repro serve-replay --workers 4 --mode process
    soar-repro serve-replay --journal /tmp/fleet.jsonl --snapshot /tmp/fleet.json
    soar-repro serve-replay --restore /tmp/fleet.json --journal /tmp/fleet.jsonl --requests 50

Run the codebase-specific static-analysis pass (lock discipline,
determinism, layering, FFI contracts, plus the
interprocedural lock-order / blocking-under-lock / atomicity families —
see ``repro.analysis``; CI runs it with ``--strict`` and uploads the
lock-acquisition graph)::

    soar-repro lint
    soar-repro lint --strict --timing
    soar-repro lint --list-rules
    soar-repro lint --jobs 4
    soar-repro lint --format github
    soar-repro lint --format sarif > lint.sarif
    soar-repro lint --lock-graph-dot lock_order.dot
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.experiments import (
    PAPER_CONFIG,
    QUICK_CONFIG,
    run_budget_sweep,
    run_color_comparison,
    run_cost_comparison,
    run_engine_comparison,
    run_fig10_required_fraction,
    run_fig10_utilization,
    run_fig11_example,
    run_fig11_scaling,
    run_fig6,
    run_fig7_capacity_sweep,
    run_fig7_workload_sweep,
    run_fig8,
    run_fig9,
    run_strategy_comparison,
)
from repro.experiments.harness import ExperimentConfig
from repro.utils.tables import render_table, write_csv


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """Build the experiment configuration from the parsed CLI options."""
    base = QUICK_CONFIG if args.quick else PAPER_CONFIG
    return ExperimentConfig(
        network_size=args.network_size or base.network_size,
        repetitions=args.repetitions or base.repetitions,
        seed=args.seed,
    )


def _emit(rows: list[dict], args: argparse.Namespace, title: str) -> None:
    """Print a text table and optionally write the rows as CSV."""
    print(render_table(rows, title=title))
    if args.csv:
        path = write_csv(rows, args.csv)
        print(f"\nwrote {len(rows)} rows to {path}")


# --------------------------------------------------------------------------- #
# sub-command implementations
# --------------------------------------------------------------------------- #


def _cmd_fig2(args: argparse.Namespace) -> list[dict]:
    return run_strategy_comparison()


def _cmd_fig3(args: argparse.Namespace) -> list[dict]:
    return run_budget_sweep()


def _cmd_fig6(args: argparse.Namespace) -> list[dict]:
    return run_fig6(config=_config(args))


def _cmd_fig7(args: argparse.Namespace) -> list[dict]:
    config = _config(args)
    rows = run_fig7_workload_sweep(config=config)
    rows.extend(run_fig7_capacity_sweep(config=config))
    return rows


def _cmd_fig8(args: argparse.Namespace) -> list[dict]:
    return run_fig8(config=_config(args))


def _cmd_fig9(args: argparse.Namespace) -> list[dict]:
    config = _config(args)
    if args.quick:
        return run_fig9(sizes=(64, 128), budgets=(4, 8, 16), config=config)
    return run_fig9(config=config)


def _cmd_fig10(args: argparse.Namespace) -> list[dict]:
    config = _config(args)
    sizes = (64, 128, 256) if args.quick else (256, 512, 1024, 2048, 4096)
    rows = run_fig10_utilization(sizes=sizes, config=config)
    rows.extend(run_fig10_required_fraction(sizes=sizes, config=config))
    return rows


def _cmd_fig11(args: argparse.Namespace) -> list[dict]:
    config = _config(args)
    sizes = (64, 128, 256) if args.quick else (256, 512, 1024, 2048, 4096)
    rows = run_fig11_example(seed=args.seed)
    rows.extend(run_fig11_scaling(sizes=sizes, config=config))
    return rows


def _comparison_sizes(args: argparse.Namespace) -> tuple[int, ...]:
    return (256, 512) if args.quick else (256, 512, 1024, 2048, 4096)


def _cmd_engines(args: argparse.Namespace) -> list[dict]:
    return run_engine_comparison(sizes=_comparison_sizes(args), config=_config(args))


def _cmd_colors(args: argparse.Namespace) -> list[dict]:
    return run_color_comparison(sizes=_comparison_sizes(args), config=_config(args))


def _cmd_costs(args: argparse.Namespace) -> list[dict]:
    return run_cost_comparison(sizes=_comparison_sizes(args), config=_config(args))


def _cmd_serve_replay(args: argparse.Namespace) -> list[dict]:
    """Replay a churn trace through the placement service and report."""
    from repro.experiments.service_replay import run_service_replay

    report, rows = run_service_replay(
        num_requests=args.requests,
        budget=args.budget,
        capacity=args.capacity,
        workload_pool=args.workload_pool,
        verify=args.verify,
        config=_config(args),
        trace_path=args.trace,
        record_path=args.record,
        workers=args.workers,
        mode=args.mode,
        journal_path=args.journal,
        restore_path=args.restore,
        snapshot_path=args.snapshot,
    )
    if args.trace:
        print(f"replayed {report.num_requests} recorded requests from {args.trace}")
    if args.record:
        print(f"recorded {report.num_requests} requests to {args.record}")
    if args.restore:
        print(f"restored the service from snapshot {args.restore}")
    if args.journal:
        print(f"journaled mutating requests to {args.journal}")
    if args.snapshot:
        print(f"wrote the final fleet snapshot to {args.snapshot}")
    if args.workers > 1:
        print(f"drove the replay with {args.workers} {report.mode} workers")
    return rows


_COMMANDS = {
    "fig2": (_cmd_fig2, "Motivating example: strategy comparison (Figure 2)"),
    "fig3": (_cmd_fig3, "Motivating example: budget sweep (Figure 3)"),
    "fig6": (_cmd_fig6, "SOAR vs strategies on BT(256) (Figure 6)"),
    "fig7": (_cmd_fig7, "Online multi-workload aggregation (Figure 7)"),
    "fig8": (_cmd_fig8, "Word-count and parameter-server use cases (Figure 8)"),
    "fig9": (_cmd_fig9, "SOAR running time (Figure 9)"),
    "fig10": (_cmd_fig10, "Scaling on binary trees (Figure 10, Appendix A)"),
    "fig11": (_cmd_fig11, "Scale-free networks (Figure 11, Appendix B)"),
    "engines": (_cmd_engines, "Gather speedup of each backend over the reference walk"),
    "colors": (_cmd_colors, "Colour speedup of each backend over the reference walk"),
    "costs": (_cmd_costs, "Eq. (1) speedup of each backend over the reference walk"),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="soar-repro",
        description="Reproduce the evaluation of 'SOAR: Minimizing Network Utilization "
        "with Bounded In-network Computing' (CoNEXT 2021).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--quick", action="store_true", help="run at a reduced scale")
        sub.add_argument("--csv", type=str, default=None, help="also write rows to this CSV file")
        sub.add_argument("--seed", type=int, default=2021, help="base random seed")
        sub.add_argument(
            "--network-size", type=int, default=None, help="override the BT(n) size"
        )
        sub.add_argument(
            "--repetitions", type=int, default=None, help="override the number of repetitions"
        )

    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        add_common(sub)

    sub_serve = subparsers.add_parser(
        "serve-replay",
        help="drive the multi-tenant placement service with a churn trace",
    )
    add_common(sub_serve)
    sub_serve.add_argument(
        "--requests", type=int, default=200, help="number of generated requests"
    )
    sub_serve.add_argument(
        "--budget", type=int, default=16, help="per-tenant aggregation budget k"
    )
    sub_serve.add_argument(
        "--capacity", type=int, default=4, help="per-switch aggregation capacity a(s)"
    )
    sub_serve.add_argument(
        "--workload-pool",
        type=int,
        default=8,
        help="number of distinct recurring workloads in the generated trace",
    )
    sub_serve.add_argument(
        "--trace", type=str, default=None, help="replay a recorded JSON-lines trace"
    )
    sub_serve.add_argument(
        "--record", type=str, default=None, help="write the trace as JSON-lines"
    )
    sub_serve.add_argument(
        "--verify",
        action="store_true",
        help="differentially verify every response against a cold solve",
    )
    sub_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="workers driving the replay (mutating requests stay "
        "barriers; payloads are bit-identical to --workers 1)",
    )
    sub_serve.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="concurrency mode with --workers > 1: a thread pool sharing "
        "one service, or a Λ-epoch pool of replica processes (GIL-free)",
    )
    sub_serve.add_argument(
        "--journal",
        type=str,
        default=None,
        help="append mutating requests to this write-ahead journal (JSON-lines)",
    )
    sub_serve.add_argument(
        "--snapshot",
        type=str,
        default=None,
        help="write a versioned snapshot of the final fleet state to this file",
    )
    sub_serve.add_argument(
        "--restore",
        type=str,
        default=None,
        help="restore the service from this snapshot before replaying "
        "(with --journal, the journal tail is replayed and appends resume)",
    )

    sub_all = subparsers.add_parser("all", help="run every figure in sequence")
    add_common(sub_all)

    # The lint runner owns its options (see repro.analysis.runner); main()
    # dispatches to it before this parser runs.  Registered here only so
    # ``soar-repro --help`` lists it.
    subparsers.add_parser(
        "lint",
        help="run the codebase-specific static-analysis pass "
        "(--format text|github|sarif, --jobs N, --lock-graph-dot PATH)",
        add_help=False,
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        from repro.analysis.runner import main as lint_main

        return lint_main(arguments[1:])

    parser = build_parser()
    args = parser.parse_args(arguments)

    if args.command == "all":
        for name, (runner, title) in _COMMANDS.items():
            rows = runner(args)
            _emit(rows, args, title)
            print()
        return 0

    if args.command == "serve-replay":
        rows = _cmd_serve_replay(args)
        _emit(rows, args, "Multi-tenant placement service: churn-trace replay")
        return 0

    runner, title = _COMMANDS[args.command]
    rows = runner(args)
    _emit(rows, args, title)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
