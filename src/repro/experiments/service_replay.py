"""Service throughput experiment: churn-trace replay with cache metrics.

Not a figure of the paper — this measures the subsystem the paper's online
setting grows into: the long-lived multi-tenant placement service of
:mod:`repro.service`.  A seeded churn trace (arrivals, departures, drains,
and a heavy stream of repeated placement queries over a recurring workload
pool) is replayed through a fresh service, and the rows report throughput,
per-kind latency percentiles, cache hit rate, and the warm/cold latency
split.  The *cold mean* is what a cache-less service would pay per
placement request, so ``warm_speedup = cold_mean / warm_mean`` is the
cache's end-to-end multiplier (asserted ≥ 10x on BT(1024) by the
acceptance test in ``tests/test_service.py``).
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.harness import ExperimentConfig, QUICK_CONFIG
from repro.service.driver import ReplayReport, replay_trace
from repro.service.events import (
    check_trace_compatible,
    generate_churn_trace,
    read_trace,
    trace_header,
    write_trace,
)
from repro.topology.binary_tree import bt_network
from repro.workload.rates import apply_rate_scheme


#: Unified column order of the service-replay rows (summary, per-kind and
#: warm-path rows share it, blank-filled, so text tables and CSVs stay
#: aligned).  The trailing block is the warm table-hit latency split
#: emitted by ``benchmarks/bench_service.py``: what one hit costs now
#: (``table_hit_ms``: batched colour + flat cost), what the same hit cost
#: on the PR 3 warm path (``pr3_warm_ms``: batched colour + per-node cost)
#: and on the legacy PR 2 path (``legacy_warm_ms``), the isolated cost
#: phase under each kernel (``cost_flat_ms`` / ``cost_reference_ms``), and
#: the resulting multipliers (``cost_kernel_speedup``,
#: ``warm_speedup_vs_pr3``, ``warm_path_speedup``).
ROW_COLUMNS: tuple[str, ...] = (
    "network_size",
    "requests",
    "budget",
    "capacity",
    "workers",
    "mode",
    "cpu_cores",
    "row",
    "kind",
    "count",
    "cache_hits",
    "mean_ms",
    "p50_ms",
    "p95_ms",
    "max_ms",
    "wall_s",
    "throughput_rps",
    "hit_rate",
    "warm_mean_ms",
    "cold_mean_ms",
    "repair_mean_ms",
    "table_hit_mean_ms",
    "memo_hit_mean_ms",
    "warm_speedup",
    "table_hit_ms",
    "pr3_warm_ms",
    "legacy_warm_ms",
    "cost_flat_ms",
    "cost_reference_ms",
    "cost_kernel_speedup",
    "warm_speedup_vs_pr3",
    "warm_path_speedup",
    "concurrent_speedup",
    "repairs",
    "repair_hits",
    "verified",
    "backend",
)


def report_rows(report: ReplayReport, scenario: dict) -> list[dict]:
    """Flatten a replay report into uniformly-keyed rows.

    One ``summary`` row then one row per request kind; every row carries
    the full column set (missing cells blank) so they concatenate cleanly
    into one text table or CSV.
    """
    raw = [{**scenario, "row": "summary", **report.summary_row()}]
    raw.extend({**scenario, "row": "kind", **kind} for kind in report.kind_rows())
    return [{column: row.get(column, "") for column in ROW_COLUMNS} for row in raw]


def run_service_replay(
    num_requests: int = 200,
    budget: int = 16,
    capacity: int = 4,
    workload_pool: int = 8,
    rate_scheme: str = "constant",
    verify: bool = False,
    config: ExperimentConfig = QUICK_CONFIG,
    trace_path: str | Path | None = None,
    record_path: str | Path | None = None,
    workers: int = 1,
    mode: str = "thread",
    journal_path: str | Path | None = None,
    restore_path: str | Path | None = None,
    snapshot_path: str | Path | None = None,
) -> tuple[ReplayReport, list[dict]]:
    """Replay a churn trace (generated or recorded) and return (report, rows).

    With ``trace_path`` the trace is read from a recorded JSON-lines file
    (after validating its network-identity header against this scenario's
    tree); otherwise a seeded trace is generated.  ``record_path``
    optionally writes the replayed trace (with header) for later replays.

    Crash-safety plumbing: ``journal_path`` attaches a write-ahead
    :class:`~repro.service.persistence.Journal` to the service (mutating
    requests are appended as they are applied), ``restore_path`` rebuilds
    the service from a snapshot file first (replaying the journal's tail
    when ``journal_path`` is also given), and ``snapshot_path`` writes a
    snapshot of the final fleet after the replay.  ``workers`` / ``mode``
    drive the replay concurrently — a thread pool or a Λ-epoch process
    pool (see :func:`repro.service.driver.replay_trace`).

    The rows contain one ``summary`` row (throughput, hit rate, warm
    speedup) followed by one row per request kind (count, hits, latency
    percentiles), all prefixed with the scenario parameters so several
    configurations concatenate into one CSV.  The scenario's ``budget``
    column is derived from the *events actually replayed* (the per-tenant
    solve/admit budget; ``"mixed"`` when they disagree), so generated and
    recorded replays of the same trace label their rows identically.
    """
    from repro.service.api import PlacementService
    from repro.service.persistence import Journal, write_snapshot

    tree = apply_rate_scheme(bt_network(config.network_size), rate_scheme)
    journal = Journal(journal_path, tree=tree) if journal_path is not None else None
    if restore_path is not None:
        service = PlacementService.restore(tree, restore_path, journal)
    else:
        service = PlacementService(tree, capacity, journal=journal)
    if trace_path is not None:
        check_trace_compatible(tree, trace_header(trace_path))
        trace = read_trace(trace_path)
    else:
        trace = generate_churn_trace(
            tree,
            num_requests,
            seed=config.seed,
            budget=budget,
            workload_pool=workload_pool,
            # A restored registry may still hold tenants from its previous
            # life; start the generated tenant numbering past every id the
            # service has ever admitted so the trace cannot collide.
            tenant_offset=service.state.admitted_total,
        )
    if record_path is not None:
        write_trace(trace, record_path, tree=tree)
    report = replay_trace(
        tree,
        trace,
        verify=verify,
        service=service,
        workers=workers,
        mode=mode,
    )
    if snapshot_path is not None:
        write_snapshot(service.snapshot(), snapshot_path)
    if journal is not None:
        journal.close()

    solve_budgets = {
        event.budget
        for event in trace
        if event.kind in ("solve", "admit") and event.budget is not None
    }
    if len(solve_budgets) == 1:
        budget_label: int | str = solve_budgets.pop()
    elif solve_budgets:
        budget_label = "mixed"
    else:
        budget_label = budget
    scenario = {
        "network_size": config.network_size,
        "requests": len(trace),
        "budget": budget_label,
        "capacity": capacity,
        "workers": workers,
        "mode": report.mode,
    }
    return report, report_rows(report, scenario)


def run_service_throughput(
    num_requests: int = 200,
    budget: int = 16,
    capacity: int = 4,
    verify: bool = False,
    config: ExperimentConfig = QUICK_CONFIG,
) -> list[dict]:
    """Row-only wrapper of :func:`run_service_replay` (CLI / benchmarks)."""
    _, rows = run_service_replay(
        num_requests=num_requests,
        budget=budget,
        capacity=capacity,
        verify=verify,
        config=config,
    )
    return rows
