"""Benchmark: multi-tenant placement-service throughput under churn.

Replays a seeded 200-request churn trace (recurring workload pool, tenant
arrivals/departures, occasional drains) through a fresh
:class:`repro.service.PlacementService` and reports throughput, per-kind
latency, cache hit rate, and the warm/cold latency split.  The CSV written
to ``benchmarks/results/service_throughput.csv`` is the service-layer
counterpart of the Figure 9 runtime table: ``cold_mean_ms`` is what every
request would cost without the gather-table cache, ``warm_mean_ms`` is what
cache hits actually cost, and ``warm_speedup`` is the multiplier the
subsystem exists for (≥ 10x on BT(1024), asserted by the acceptance test in
``tests/test_service.py``).

The summary row further splits the warm side by cache layer:
``table_hit_mean_ms`` is the latency of a gather-table hit (batched
colour trace + flat cost recompute, the two phases the batched kernels
own) and ``memo_hit_mean_ms`` the digest-lookup latency of a
solution-memo hit.  The dedicated warm-path benchmark below compares
three generations of the same hit — the current artifact path
(``GatherTable.place``: the backend's trace and cost recompute), the PR 3
path it replaced (the same trace + per-node cost recompute), and the
legacy PR 2 path (workload-network rebuild + per-node trace + per-node
cost) — plus the isolated cost phase on the default backend and on the
per-node reference walk.  Asserted on BT(1024): ≥ 3x over legacy and ≥ 2x
over the PR 3 warm path, with the ``cost_kernel_speedup`` column
recording the backend cost kernel's own multiplier.  ``python
benchmarks/bench_service.py --quick`` runs the warm-path scenario
standalone (the CI smoke step), writing
``benchmarks/results/service_throughput_warm_smoke.csv``; the canonical
``service_throughput.csv`` is produced by the churn-replay benchmark at
acceptance scale with the same warm-path columns appended.

The repair benchmark (:func:`repair_rows`) times the PR 9 delta-repair
path against the cold gather it replaces: one switch flips availability
(the single-switch drain of the service's churn traces) and the cached
gather table is patched along the dirtied ancestor chain instead of
being rebuilt from scratch.  Every repaired table is asserted
bit-identical to the cold gather (full DP tensors, placements, costs)
before its time is trusted.  The two are timed alternately, one cold
gather and one repair per round (each after an untimed call of its own
kind), best of each; ``repair_speedup = cold_ms / repaired_ms`` must be
≥ 5x for the single-switch row on BT(1024).  ``python
benchmarks/bench_service.py --repair`` runs the comparison standalone,
writing ``benchmarks/results/service_repair_bt1024.csv`` (or the BT(256)
variant with ``--quick``).
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from repro.core.color import blue_set, soar_color
from repro.core.cost import utilization_cost
from repro.core.engine import BACKENDS
from repro.core.solver import Solver
from repro.experiments.service_replay import ROW_COLUMNS, report_rows
from repro.service.driver import replay_trace
from repro.service.events import generate_churn_trace
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads
from repro.workload.rates import apply_rate_scheme

#: The acceptance-scale scenario: 200 requests over BT(1024).
TRACE_REQUESTS = 200
BUDGET = 16
CAPACITY = 4


def _scenario(size: int, seed: int = 2021):
    tree = apply_rate_scheme(bt_network(size), "constant")
    trace = generate_churn_trace(
        tree, TRACE_REQUESTS, seed=seed, budget=BUDGET, workload_pool=8
    )
    return tree, trace


@pytest.mark.benchmark(group="service churn replay")
@pytest.mark.parametrize("size", [256, 1024])
def test_service_churn_replay(benchmark, emit_rows, size):
    """Replay the churn trace end to end (fresh service every round)."""
    tree, trace = _scenario(size)

    report = benchmark(lambda: replay_trace(tree, trace, capacity=CAPACITY))

    rows = report_rows(
        report,
        {
            "network_size": size,
            "requests": TRACE_REQUESTS,
            "budget": BUDGET,
            "capacity": CAPACITY,
        },
    )
    emit_rows(
        rows,
        f"service_throughput_bt{size}",
        f"Service churn replay on BT({size}): throughput and cache hit rate",
    )
    if size == 1024:
        # Also persist the acceptance-scale scenario under the canonical
        # name the CI benchmark job publishes, with the warm table-hit
        # latency split (incl. the cost-kernel columns) appended.
        emit_rows(
            rows + warm_path_report_rows(size),
            "service_throughput",
            "Service throughput (BT(1024), 200 requests)",
        )
    # Sanity: the cache must be doing real work on a recurring-pool trace.
    assert report.hit_rate > 0.2
    assert report.warm_speedup > 1.0


def _best_of(function, rounds: int = 25) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_best_of(first, second, rounds: int = 25) -> tuple[float, float]:
    """Best-of-``rounds`` times of two functions, one timed call of each per
    round, so a slow host phase lands on both sides of their ratio rather
    than on a block of one side's rounds.

    Each timed call follows an untimed call of the same function: a cold
    gather evicts what a repair right after it reads, which made the repair
    15-20% slower at BT(256) than in a run of repairs, while a cold gather
    after a repair was not slowed.
    """
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for slot, function in enumerate((first, second)):
            function()
            start = time.perf_counter()
            function()
            best[slot] = min(best[slot], time.perf_counter() - start)
    return best[0], best[1]


#: Memo of :func:`warm_path_rows` per (size, rounds): the churn-replay
#: benchmark and the dedicated warm-path benchmark both publish the same
#: measurement, which should be paid once per process (two BT(1024)
#: gathers plus four timed paths are not free).
_WARM_PATH_MEMO: dict[tuple[int, int], list[dict]] = {}


def warm_path_rows(size: int, rounds: int = 25) -> list[dict]:
    """Compare three generations of the warm table-hit path.

    ``table_hit_ms`` is what a gather-table cache hit costs now — one
    ``GatherTable.place`` call on the default backend: its colour trace
    plus its cost recompute, no tree reconstruction and no per-node walk.
    ``pr3_warm_ms`` re-enacts the PR 3 warm path (the same backend trace,
    but the per-node ``utilization_cost`` recompute), ``legacy_warm_ms``
    the PR 2 path (rebuild the workload network from the request loads,
    run the per-node reference trace, recompute the cost per node).
    ``cost_flat_ms`` (the backend's ``costs`` of the traced mask) and
    ``cost_reference_ms`` isolate the cost phase the two differ by.
    Identical outputs, different machinery — every path is asserted
    bit-identical before its time is trusted.
    """
    memoized = _WARM_PATH_MEMO.get((size, rounds))
    if memoized is not None:
        return [dict(row) for row in memoized]
    tree = apply_rate_scheme(bt_network(size), "constant")
    loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=2021)
    workload = tree.with_loads(loads)
    table = Solver().gather(workload, BUDGET)
    backend = table.backend

    def pr3_warm_hit():
        flat, masks = backend.trace(workload, table.result, [BUDGET])
        blue = blue_set(flat.order, masks[0])
        return blue, utilization_cost(workload, blue)

    placement = table.place(BUDGET)
    pr3_blue, pr3_cost = pr3_warm_hit()
    assert pr3_blue == placement.blue_nodes
    assert pr3_cost == placement.cost

    def legacy_warm_hit():
        rebuilt = tree.with_loads(loads)
        blue = soar_color(rebuilt, table.result)
        return blue, utilization_cost(rebuilt, blue)

    legacy_blue, legacy_cost = legacy_warm_hit()
    assert legacy_blue == placement.blue_nodes and legacy_cost == placement.cost

    blue = placement.blue_nodes
    model = table.cost_model()
    _, masks = backend.trace(workload, table.result, [BUDGET])
    assert backend.costs(workload, masks, model)[0] == utilization_cost(workload, blue)

    table_hit_s = _best_of(lambda: table.place(BUDGET), rounds)
    pr3_warm_s = _best_of(pr3_warm_hit, rounds)
    legacy_s = _best_of(legacy_warm_hit, rounds)
    cost_flat_s = _best_of(lambda: backend.costs(workload, masks, model), rounds)
    cost_reference_s = _best_of(lambda: utilization_cost(workload, blue), rounds)
    rows = [
        {
            "network_size": size,
            "budget": BUDGET,
            "row": "warm_path",
            "table_hit_ms": 1e3 * table_hit_s,
            "pr3_warm_ms": 1e3 * pr3_warm_s,
            "legacy_warm_ms": 1e3 * legacy_s,
            "cost_flat_ms": 1e3 * cost_flat_s,
            "cost_reference_ms": 1e3 * cost_reference_s,
            "cost_kernel_speedup": (
                cost_reference_s / cost_flat_s if cost_flat_s else 0.0
            ),
            "warm_speedup_vs_pr3": pr3_warm_s / table_hit_s if table_hit_s else 0.0,
            "warm_path_speedup": legacy_s / table_hit_s if table_hit_s else 0.0,
        }
    ]
    _WARM_PATH_MEMO[(size, rounds)] = [dict(row) for row in rows]
    return rows


def warm_path_report_rows(size: int, rounds: int = 25) -> list[dict]:
    """:func:`warm_path_rows` normalized onto the unified CSV column set."""
    return [
        {column: row.get(column, "") for column in ROW_COLUMNS}
        for row in warm_path_rows(size, rounds=rounds)
    ]


@pytest.mark.benchmark(group="service warm path")
@pytest.mark.parametrize("size", [256, 1024])
def test_warm_table_hit_colour_only(benchmark, emit_rows, size):
    """The warm path must beat legacy ≥ 3x and the PR 3 path ≥ 2x on BT(1024)."""
    rows = benchmark.pedantic(
        warm_path_rows, kwargs={"size": size}, rounds=1, iterations=1
    )
    emit_rows(
        rows,
        f"service_warm_path_bt{size}",
        f"Warm table-hit path on BT({size}): backend cost vs PR 3 vs legacy",
    )
    assert rows[0]["warm_path_speedup"] > 1.0
    assert rows[0]["cost_kernel_speedup"] > 1.0
    if size >= 1024:
        assert rows[0]["warm_path_speedup"] >= 3.0
        assert rows[0]["warm_speedup_vs_pr3"] >= 2.0


#: Column order of the repair-benchmark CSV (``service_repair_bt*.csv``).
#: ``depth`` is the tree depth of the deepest flipped switch — the length
#: of the dirtied ancestor chain the repair actually recomputes — and
#: ``repair_speedup`` is the headline ``cold_ms / repaired_ms`` multiplier.
REPAIR_COLUMNS: tuple[str, ...] = (
    "network_size",
    "budget",
    "backend",
    "row",
    "delta_size",
    "depth",
    "cold_ms",
    "repaired_ms",
    "repair_speedup",
)


def repair_rows(
    size: int, rounds: int = 25, delta_sizes: tuple[int, ...] = (1, 2, 4, 8)
) -> list[dict]:
    """Time delta repair against the cold gather it replaces.

    For every backend and every delta size, flip
    the ``delta_size`` deepest available switches (the worst case: the
    longest dirtied ancestor chains), then measure a cold gather at the
    churned availability versus :meth:`GatherTable.repair` on the cached
    table.  Before any time is trusted the repaired table is asserted
    bit-identical to the cold gather: every *valid* cell of every table
    and breadcrumb block, read through the tables' column and slot
    indices (leaves own no block; rows beyond a node's depth are ``np.empty`` garbage and never
    read — see :func:`repro.core.engine.gather` — so they are masked
    out), the placement, and the cost.  The thorough differential (chained repairs, both backend legs,
    ``exact_k``) lives in ``tests/test_repair.py``; this assertion keeps
    the benchmark honest about *what* it is timing.
    """
    import numpy as np

    tree = apply_rate_scheme(bt_network(size), "constant")
    loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=2021)
    workload = tree.with_loads(loads)
    # Deepest switches first: their ancestor chains span the full height,
    # so the measured repair never flatters itself with a shallow flip.
    candidates = sorted(
        workload.available, key=lambda node: (-workload.depth(node), node)
    )
    rows: list[dict] = []
    for backend in BACKENDS:
        solver = Solver(backend=backend)
        table = solver.gather(workload, BUDGET)
        for delta_size in delta_sizes:
            delta = frozenset(candidates[:delta_size])
            churned = workload.with_available(workload.available ^ delta)
            cold = solver.gather(churned, BUDGET)
            repaired = table.repair(delta)
            flat = cold.result.flat
            rows_axis = np.arange(flat.y_red.shape[1])[None, :, None]
            slot_depth = np.repeat(flat.depth, np.maximum(flat.num_children - 1, 0))
            for field in ("y_red", "y_blue", "splits_red", "splits_blue"):
                splits = field.startswith("splits")
                depth = slot_depth if splits else flat.depth[flat.internal]
                valid = rows_axis <= depth[:, None, None]
                blocks = [
                    getattr(f, field)[f.scol if splits else f.col[f.internal]]
                    for f in (repaired.result.flat, flat)
                ]
                assert np.array_equal(
                    np.where(valid, blocks[0], 0), np.where(valid, blocks[1], 0)
                ), f"repaired {field} diverged from the cold gather ({backend.name})"
            cold_place = cold.place(BUDGET)
            repaired_place = repaired.place(BUDGET)
            assert repaired_place.blue_nodes == cold_place.blue_nodes
            assert repaired_place.cost == cold_place.cost

            cold_s, repaired_s = _paired_best_of(
                lambda: solver.gather(churned, BUDGET),
                lambda: table.repair(delta),
                rounds,
            )
            rows.append(
                {
                    "network_size": size,
                    "budget": BUDGET,
                    "backend": backend.name,
                    "row": "repair",
                    "delta_size": delta_size,
                    "depth": max(workload.depth(node) for node in delta),
                    "cold_ms": 1e3 * cold_s,
                    "repaired_ms": 1e3 * repaired_s,
                    "repair_speedup": cold_s / repaired_s if repaired_s else 0.0,
                }
            )
    return rows


@pytest.mark.benchmark(group="service repair")
@pytest.mark.parametrize("size", [256, 1024])
def test_repair_vs_cold_gather(benchmark, emit_rows, size):
    """Delta repair must beat the cold gather ≥ 5x single-switch on BT(1024)."""
    rows = benchmark.pedantic(
        repair_rows, kwargs={"size": size}, rounds=1, iterations=1
    )
    emit_rows(
        [{column: row.get(column, "") for column in REPAIR_COLUMNS} for row in rows],
        f"service_repair_bt{size}",
        f"Delta repair vs cold gather on BT({size})",
    )
    for row in rows:
        assert row["repair_speedup"] > 1.0, (
            f"repair slower than cold gather: {row}"
        )
    if size >= 1024:
        for row in rows:
            if row["delta_size"] == 1:
                assert row["repair_speedup"] >= 5.0, (
                    f"single-switch repair only {row['repair_speedup']:.2f}x "
                    f"on {row['backend']}"
                )


@pytest.mark.benchmark(group="service repair replay")
@pytest.mark.parametrize("size", [256])
def test_service_repair_replay(benchmark, size):
    """Churn replay with repair on vs off: identical payloads, repairs engaged.

    The same seeded trace is replayed through a repair-enabled service and
    a ``max_repair_delta=0`` (legacy invalidate-on-drain) service; the
    response payloads must be identical — repair buys latency, never
    different answers — and the enabled run must actually exercise the
    path (``repair_hits > 0``), with every candidate completing its repair
    (``repairs == repair_hits``), which is also the CI smoke gate.
    """
    from repro.service.api import PlacementService
    from repro.service.driver import response_payload

    tree, trace = _scenario(size)

    def replay(max_repair_delta: int | None):
        service = PlacementService(
            tree, CAPACITY, max_repair_delta=max_repair_delta
        )
        return replay_trace(tree, trace, service=service)

    repaired_report = benchmark.pedantic(
        replay, kwargs={"max_repair_delta": None}, rounds=1, iterations=1
    )
    legacy_report = replay(max_repair_delta=0)

    repaired_payloads = [
        response_payload(record.response) for record in repaired_report.records
    ]
    legacy_payloads = [
        response_payload(record.response) for record in legacy_report.records
    ]
    assert repaired_payloads == legacy_payloads, (
        "repair-enabled replay diverged from the invalidate-on-drain replay"
    )
    assert repaired_report.repair_hits > 0
    assert repaired_report.repairs == repaired_report.repair_hits
    assert legacy_report.repairs == 0


@pytest.mark.benchmark(group="service cold vs warm")
@pytest.mark.parametrize("size", [1024])
def test_service_verified_replay(benchmark, emit_rows, size):
    """Replay with full differential verification enabled (cost of trust)."""
    tree, trace = _scenario(size)

    report = benchmark(
        lambda: replay_trace(tree, trace, capacity=CAPACITY, verify=True)
    )

    assert report.verified > 0
    emit_rows(
        report_rows(
            report,
            {
                "network_size": size,
                "requests": TRACE_REQUESTS,
                "budget": BUDGET,
                "capacity": CAPACITY,
            },
        ),
        f"service_throughput_verified_bt{size}",
        f"Verified service churn replay on BT({size})",
    )


# --------------------------------------------------------------------------- #
# standalone warm-hit smoke (the CI step)
# --------------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    """Run the warm table-hit scenario standalone and persist the CSV.

    ``--quick`` shrinks the network to BT(256) with fewer timing rounds
    (what ``.github/workflows/ci.yml`` runs as the warm-hit smoke step);
    the full run covers BT(1024) and enforces the acceptance bars.  In
    either mode the measured row (written to
    ``service_throughput_warm_smoke.csv`` by default) must carry a
    populated ``cost_kernel_speedup`` column above 1 — a blank or
    non-positive value means the backend's cost kernel silently stopped
    pulling its weight.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="BT(256), fewer rounds (CI smoke)"
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="run the delta-repair vs cold-gather comparison instead "
        "(writes service_repair_bt1024.csv, or the BT(256) variant with --quick)",
    )
    parser.add_argument(
        "--csv",
        default=None,
        help="output CSV path (default: benchmarks/results/service_throughput_warm_smoke.csv)",
    )
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.utils.tables import render_table, write_csv

    if args.repair:
        size = 256 if args.quick else 1024
        rounds = 5 if args.quick else 25
        rows = repair_rows(size, rounds=rounds)
        normalized = [
            {column: row.get(column, "") for column in REPAIR_COLUMNS} for row in rows
        ]
        print(render_table(normalized, title=f"Delta repair vs cold gather on BT({size})"))
        # Explicit raises, not asserts: these gates must survive `python -O`.
        # Bit-identity to the cold gather was already asserted per row
        # inside repair_rows before any time was trusted.
        for row in rows:
            if float(row["repair_speedup"]) <= 1.0:
                raise SystemExit(
                    f"repair slower than cold gather on {row['backend']} "
                    f"(delta {row['delta_size']}: {row['repair_speedup']:.2f}x)"
                )
            if not args.quick and row["delta_size"] == 1 and (
                float(row["repair_speedup"]) < 5.0
            ):
                raise SystemExit(
                    f"single-switch repair only {row['repair_speedup']:.2f}x "
                    f"over the cold gather on {row['backend']} (need ≥ 5x)"
                )
        default_path = Path(__file__).parent / "results" / f"service_repair_bt{size}.csv"
        path = write_csv(normalized, Path(args.csv) if args.csv else default_path)
        print(f"wrote {len(normalized)} rows to {path}")
        return 0

    size = 256 if args.quick else 1024
    rounds = 10 if args.quick else 25
    rows = warm_path_report_rows(size, rounds=rounds)
    row = rows[0]
    print(render_table(rows, title=f"Warm table-hit path on BT({size})"))

    # Explicit raises, not asserts: this gate must survive `python -O`.
    if row["cost_kernel_speedup"] == "":
        raise SystemExit("cost_kernel_speedup column is empty")
    if float(row["cost_kernel_speedup"]) <= 1.0:
        raise SystemExit(
            "the backend cost kernel is not faster than the reference walk "
            f"({row['cost_kernel_speedup']})"
        )
    if not args.quick and float(row["warm_speedup_vs_pr3"]) < 2.0:
        raise SystemExit(
            f"warm hit only {row['warm_speedup_vs_pr3']}x over the PR 3 path"
        )

    # Written under its own name, like the serve-replay smoke: the
    # canonical service_throughput.csv stays the acceptance-scale churn
    # replay (with these warm-path columns appended by the benchmark),
    # never a reduced-scale smoke row.
    default_path = Path(__file__).parent / "results" / "service_throughput_warm_smoke.csv"
    path = write_csv(rows, Path(args.csv) if args.csv else default_path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI smoke step
    sys.exit(main())
