"""Traffic-replay driver: run a churn trace through the service and measure.

The driver is the operational proof of the subsystem: it feeds a recorded
(or generated) trace to a fresh :class:`~repro.service.api.PlacementService`,
times every request, and aggregates throughput, per-kind latency, and cache
hit rate.  With ``verify=True`` it additionally re-solves every placement
response *cold* — a direct :meth:`repro.core.solver.Solver.solve` /
:meth:`~repro.core.solver.Solver.sweep` against the availability the
service saw — and asserts the answers are bit-identical (same blue set,
same cost floats), turning any replay into a differential test of the whole
cache/state stack.

The summary row distinguishes *warm* placement requests (answered from the
cache) from *cold* ones (paid a gather); their latency ratio
(``warm_speedup``) is the service's headline number, asserted ≥ 10x on
BT(1024) by the acceptance test.  Availability misses answered by a delta
repair are neither: they report on their own as ``repair_mean_ms``.  Warm requests are further split by cache
layer — ``table_hit_mean_ms`` (gather-table hits: a colour trace and
nothing else, the latency the colour kernel owns) versus
``memo_hit_mean_ms`` (solution-memo hits: a digest lookup) — so
``benchmarks/bench_service.py`` can track the colour-phase latency as its
own column.

Replay is serial: one request at a time through
:meth:`~repro.service.api.PlacementService.submit`, in trace order, which
is how a single client drives the daemon.  ``submit`` itself stays
thread-safe for library callers that share one service between threads;
``tests/test_service.py`` checks that concurrent readers get the serial
answers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.core.solver import Solver
from repro.core.tree import NodeId, TreeNetwork
from repro.service.api import (
    AdmitRequest,
    AdmitResponse,
    DrainResponse,
    PlacementService,
    ReleaseResponse,
    Request,
    Response,
    SolveRequest,
    SolveResponse,
    StatsResponse,
    SweepRequest,
    SweepResponse,
)
from repro.service.events import TraceEvent, event_to_request, node_index


@dataclass(frozen=True)
class ReplayRecord:
    """One replayed request: the event, what was sent, what came back."""

    index: int
    event: TraceEvent
    request: Request
    response: Response
    elapsed_s: float


@dataclass
class ReplayReport:
    """Aggregate outcome of replaying a trace."""

    records: list[ReplayRecord]
    wall_s: float
    verified: int
    #: Name of the kernel backend the service ran on.
    backend: str
    #: Cache counters captured after the replay: completed delta repairs and
    #: repair-candidate matches (see :class:`repro.service.cache.CacheStats`).
    #: ``repair_hits == 0`` over a churn trace means the repair path never
    #: engaged — the CI smoke asserts it did.
    repairs: int = 0
    repair_hits: int = 0

    @property
    def num_requests(self) -> int:
        return len(self.records)

    @property
    def throughput_rps(self) -> float:
        """Requests served per second of wall time."""
        return self.num_requests / self.wall_s if self.wall_s > 0 else 0.0

    def _placement_records(self) -> list[ReplayRecord]:
        return [
            record
            for record in self.records
            if isinstance(record.response, (SolveResponse, AdmitResponse, SweepResponse))
        ]

    @property
    def hit_rate(self) -> float:
        """Fraction of placement-producing requests answered from the cache."""
        placements = self._placement_records()
        if not placements:
            return 0.0
        hits = sum(1 for record in placements if record.response.cache_hit)
        return hits / len(placements)

    def _source_latencies(self, source: str) -> list[float]:
        return [
            record.elapsed_s
            for record in self._placement_records()
            if record.response.cache_source == source
        ]

    @property
    def warm_mean_s(self) -> float:
        warm = [
            record.elapsed_s
            for record in self._placement_records()
            if record.response.cache_hit
        ]
        return sum(warm) / len(warm) if warm else 0.0

    @property
    def cold_mean_s(self) -> float:
        """Mean latency of requests that paid a cold gather."""
        cold = self._source_latencies("gather")
        return sum(cold) / len(cold) if cold else 0.0

    @property
    def repair_mean_s(self) -> float:
        """Mean latency of availability misses answered by a delta repair."""
        repaired = self._source_latencies("repair")
        return sum(repaired) / len(repaired) if repaired else 0.0

    @property
    def table_hit_mean_s(self) -> float:
        """Mean latency of gather-table hits: the colour-only warm path."""
        hits = self._source_latencies("table")
        return sum(hits) / len(hits) if hits else 0.0

    @property
    def memo_hit_mean_s(self) -> float:
        """Mean latency of solution-memo hits (digest lookup, no trace)."""
        hits = self._source_latencies("memo")
        return sum(hits) / len(hits) if hits else 0.0

    @property
    def warm_speedup(self) -> float:
        """Mean cold latency over mean warm latency (0.0 when undefined)."""
        warm, cold = self.warm_mean_s, self.cold_mean_s
        return cold / warm if warm > 0 and cold > 0 else 0.0

    def kind_rows(self) -> list[dict]:
        """Per-request-kind latency/hit table (one row per kind seen)."""
        grouped: dict[str, list[ReplayRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.event.kind, []).append(record)
        rows = []
        for kind in sorted(grouped):
            records = grouped[kind]
            latencies = sorted(record.elapsed_s for record in records)
            hits = sum(
                1
                for record in records
                if getattr(record.response, "cache_hit", False)
            )
            rows.append(
                {
                    "kind": kind,
                    "count": len(records),
                    "cache_hits": hits,
                    "mean_ms": 1e3 * sum(latencies) / len(latencies),
                    "p50_ms": 1e3 * _percentile(latencies, 0.50),
                    "p95_ms": 1e3 * _percentile(latencies, 0.95),
                    "max_ms": 1e3 * latencies[-1],
                }
            )
        return rows

    def summary_row(self) -> dict:
        """One-row overall summary (throughput, hit rate, warm speedup)."""
        return {
            "requests": self.num_requests,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "hit_rate": self.hit_rate,
            "warm_mean_ms": 1e3 * self.warm_mean_s,
            "cold_mean_ms": 1e3 * self.cold_mean_s,
            "repair_mean_ms": 1e3 * self.repair_mean_s,
            "table_hit_mean_ms": 1e3 * self.table_hit_mean_s,
            "memo_hit_mean_ms": 1e3 * self.memo_hit_mean_s,
            "warm_speedup": self.warm_speedup,
            "repairs": self.repairs,
            "repair_hits": self.repair_hits,
            "verified": self.verified,
            "backend": self.backend,
        }


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence.

    The standard ceil-based definition: the value at 1-based rank
    ``ceil(fraction * n)``.  The previous implementation rounded
    ``fraction * (n - 1)`` with Python's banker's ``round()``, whose
    round-half-to-even makes even-length samples pick inconsistent ranks
    (p50 of 2 rounds *down*, p50 of 4 rounds *up*) — the small per-kind
    samples of :meth:`ReplayReport.kind_rows` hit exactly those cases.
    """
    if not ordered:
        return 0.0
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def response_payload(response: Response) -> tuple | None:
    """Canonical *semantic* payload of a response, for differential diffs.

    Two runs of the same trace "agree" when every response carries the
    same payload: the placements, costs, budgets, restored switch sets,
    and drain outcomes.  Deliberately excluded are the fields that honest
    replays may legitimately differ in — latency (``elapsed_s``), cache
    diagnostics (``cache_hit`` / ``cache_source`` / ``invalidated_entries``,
    which depend on which thread gathered first or on what survived a
    restart), and ``Stats`` responses entirely (their counters describe
    the *process*, not the fleet decisions).  This is the equality the
    snapshot-restore and concurrent-reader differential suites assert.
    """
    if isinstance(response, (SolveResponse, AdmitResponse)):
        payload: tuple = (
            tuple(sorted(map(repr, response.blue_nodes))),
            response.cost,
            response.predicted_cost,
            response.budget,
        )
        if isinstance(response, AdmitResponse):
            return ("admit", response.tenant_id, *payload)
        return ("solve", *payload)
    if isinstance(response, SweepResponse):
        return (
            "sweep",
            tuple(sorted(response.costs.items())),
            tuple(
                (budget, tuple(sorted(map(repr, blue))))
                for budget, blue in sorted(response.placements.items())
            ),
        )
    if isinstance(response, ReleaseResponse):
        return (
            "release",
            response.tenant_id,
            tuple(sorted(map(repr, response.restored))),
        )
    if isinstance(response, DrainResponse):
        return (
            "drain",
            repr(response.switch),
            tuple(
                (
                    item.tenant_id,
                    tuple(sorted(map(repr, item.old_blue_nodes))),
                    tuple(sorted(map(repr, item.new_blue_nodes))),
                    item.old_cost,
                    item.new_cost,
                )
                for item in response.displaced
            ),
            tuple(
                (
                    failure.tenant_id,
                    tuple(sorted(map(repr, failure.old_blue_nodes))),
                    failure.old_cost,
                    failure.error,
                )
                for failure in response.failed
            ),
        )
    if isinstance(response, StatsResponse):
        return None
    return None


def _verify_response(
    tree: TreeNetwork,
    available: frozenset[NodeId],
    request: Request,
    response: Response,
    engine: str | None = None,
) -> bool:
    """Re-solve a placement response cold and assert bitwise agreement.

    The cold solve runs on :data:`~repro.core.engine.DEFAULT_BACKEND`
    whatever backend served the response (the backends are bit-identical,
    so this also checks a numpy service against the compiled kernels).
    ``engine`` is unused: it is kept because ``perfbench/checks.py`` still
    passes a backend name in that position.

    Returns True when the response type is verifiable (solve/sweep/admit),
    False otherwise.  Raises AssertionError on any mismatch.
    """
    solver = Solver(exact_k=request.exact_k) if isinstance(
        request, (SolveRequest, AdmitRequest, SweepRequest)
    ) else None
    if isinstance(request, (SolveRequest, AdmitRequest)) and isinstance(
        response, (SolveResponse, AdmitResponse)
    ):
        reference_tree = tree.with_loads(request.loads, available=available)
        reference = solver.solve(reference_tree, request.budget)
        assert response.cost == reference.cost, (
            f"service cost {response.cost!r} != cold solve cost {reference.cost!r}"
        )
        assert response.predicted_cost == reference.predicted_cost, (
            f"service predicted {response.predicted_cost!r} != "
            f"cold {reference.predicted_cost!r}"
        )
        assert response.blue_nodes == reference.blue_nodes, (
            f"service placement {sorted(map(repr, response.blue_nodes))} != "
            f"cold placement {sorted(map(repr, reference.blue_nodes))}"
        )
        return True
    if isinstance(request, SweepRequest) and isinstance(response, SweepResponse):
        if not request.budgets:
            return True
        reference_tree = tree.with_loads(request.loads, available=available)
        reference = solver.sweep(reference_tree, request.budgets)
        for budget, solution in reference.items():
            got_cost = response.costs[budget]
            assert got_cost == solution.cost, (
                f"sweep budget {budget}: service cost {got_cost!r} != "
                f"cold {solution.cost!r}"
            )
            assert response.placements[budget] == solution.blue_nodes, (
                f"sweep budget {budget}: placements differ"
            )
        return True
    return False


def replay_trace(
    tree: TreeNetwork,
    events: Sequence[TraceEvent],
    capacity: int | Mapping[NodeId, int] = 4,
    cache_entries: int = 64,
    verify: bool = False,
    service: PlacementService | None = None,
) -> ReplayReport:
    """Replay a trace against a (fresh or supplied) service and measure it.

    Parameters
    ----------
    tree:
        The shared network the trace was recorded for.
    events:
        The trace (see :mod:`repro.service.events`).
    capacity:
        Per-switch capacity used when constructing a fresh service, which
        runs on :data:`~repro.core.engine.DEFAULT_BACKEND`.
    cache_entries:
        Cache size for a fresh service.
    verify:
        When true, every placement response is checked bit-identical
        against a direct cold solve at the availability the service saw
        (verification time is *excluded* from the request timings and the
        wall clock).
    service:
        Replay into an existing service instead of a fresh one (state and
        cache carry over; ``capacity`` and ``cache_entries`` are then
        ignored).  This is how a replay runs on another backend:
        ``service=PlacementService(tree, capacity, backend=NUMPY_BACKEND)``.
    """
    if service is None:
        service = PlacementService(tree, capacity, cache_entries=cache_entries)
    index_map = node_index(tree)
    requests = [event_to_request(tree, event, index_map) for event in events]
    records: list[ReplayRecord] = []
    verified = 0
    wall = 0.0
    for position, (event, request) in enumerate(zip(events, requests)):
        # Read Λ from the fleet state, not service.available(): the
        # latter would prime the service's memoized Λ fingerprint
        # outside the timer and flatter the measured latencies.
        available = service.state.available() if verify else frozenset()
        start = time.perf_counter()
        response = service.submit(request)
        elapsed = time.perf_counter() - start
        wall += elapsed
        if verify and _verify_response(tree, available, request, response):
            verified += 1
        records.append(
            ReplayRecord(
                index=position,
                event=event,
                request=request,
                response=response,
                elapsed_s=elapsed,
            )
        )
    return ReplayReport(
        records=records,
        wall_s=wall,
        verified=verified,
        backend=service.backend.name,
        repairs=service.cache.stats.repairs,
        repair_hits=service.cache.stats.repair_hits,
    )
