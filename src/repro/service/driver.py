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

Concurrent replay
-----------------
``workers > 1`` drives the service concurrently while preserving the
trace's observable semantics; two modes exist.

``mode="thread"`` (the default) drives one shared service from a thread
pool: mutating requests are barriers (executed alone, in trace order,
exactly as the service's write lock would force anyway), and each maximal
run of read-only requests between two barriers is fanned out across the
workers.  Within such a run the fleet state cannot change, so every
request is independent and the *payload* of each response — blue set,
costs, budgets (see :func:`response_payload`) — is bit-identical to a
serial replay of the same trace.  Threads share the GIL, though, so on
the numpy backend the fan-out buys nothing (the measured
``concurrent_speedup`` was 0.78 on BT(256)); the compiled backend releases
the GIL inside its kernels, and ``mode="process"`` sidesteps it entirely.

``mode="process"`` replays with true process parallelism.  The parent
applies every mutating request serially to the authoritative service; a
read-only request's payload is a pure function of its own
``(loads, budget, exact_k)`` and the availability set ``Λ`` — nothing
else — so reads are batched per **Λ-epoch** (a maximal trace span over
which the availability fingerprint is constant), partitioned across the
pool with workload affinity (requests sharing a loads fingerprint go to
the same batch, so one worker pays the cold gather and its siblings ride
that worker's cache), and dispatched as the epoch closes, overlapping
with the parent's continuing mutation stream.  Each worker process holds
a persistent replica service on the coordinating service's backend,
resyncing its fleet snapshot once per epoch (the gather-table cache keys
include the Λ fingerprint, so the cache survives resyncs and stale
entries are unreachable).  Response
payloads are bit-identical to the serial replay; diagnostics
(``cache_hit`` / ``cache_source``, ``Stats`` counters) may differ, as in
thread mode.  ``tests/test_service_persistence.py`` pins the payload
identity for both modes; the CI workflow diffs 4-worker replays against
the serial one on every push.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.core.engine import Backend
from repro.core.solver import Solver
from repro.core.tree import NodeId, TreeNetwork, fingerprint_loads
from repro.service.api import (
    READ_ONLY_REQUESTS,
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
    workers: int = 1
    mode: str = "serial"
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
            "workers": self.workers,
            "mode": self.mode,
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
    snapshot-restore and concurrent-replay differential suites assert.
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


def _timed_submit(
    service: PlacementService, request: Request
) -> tuple[Response, float]:
    start = time.perf_counter()
    response = service.submit(request)
    return response, time.perf_counter() - start


# --------------------------------------------------------------------------- #
# process-mode replica workers
# --------------------------------------------------------------------------- #

#: Per-process replica state of the process-mode workers: the replica
#: service (built once by :func:`_process_worker_init`), the str -> node-id
#: index for fleet-snapshot resolution, and the Λ-epoch the replica's fleet
#: state was last synced to.
_PROCESS_REPLICA: dict = {}


def _process_worker_init(
    tree: TreeNetwork,
    capacity: int | Mapping[NodeId, int],
    backend: Backend,
    cache_entries: int,
) -> None:
    """Build this worker process's persistent replica service.

    The replica's fleet state is a placeholder until the first batch
    arrives — every batch carries its epoch's fleet snapshot, and
    :meth:`~repro.service.state.FleetState.load_state` fully overwrites
    residuals, drains, tenants, and the Λ digest.  The gather-table cache
    is *not* reset on resync: its keys include the availability
    fingerprint, so entries from earlier epochs are simply unreachable
    until (and unless) that exact Λ returns.
    """
    _PROCESS_REPLICA["service"] = PlacementService(
        tree, capacity, backend=backend, cache_entries=cache_entries
    )
    _PROCESS_REPLICA["index"] = node_index(tree)
    _PROCESS_REPLICA["epoch"] = None


def _process_worker_ping() -> bool:
    """No-op task used to force worker spawn before the wall clock starts."""
    return True


def _process_worker_serve(
    epoch: int,
    fleet_state: Mapping,
    batch: Sequence[tuple[int, Request]],
) -> list[tuple[int, Response, float]]:
    """Serve one epoch batch of read-only requests on the replica.

    Returns ``(trace position, response, elapsed seconds)`` triples; the
    parent reassembles them into trace order.
    """
    service = _PROCESS_REPLICA["service"]
    if epoch != _PROCESS_REPLICA["epoch"]:
        service.state.load_state(fleet_state, _PROCESS_REPLICA["index"])
        _PROCESS_REPLICA["epoch"] = epoch
    results = []
    for position, request in batch:
        start = time.perf_counter()
        response = service.submit(request)
        results.append((position, response, time.perf_counter() - start))
    return results


def _partition_epoch(
    pending: Sequence[tuple[int, Request, tuple]],
    workers: int,
) -> list[list[tuple[int, Request]]]:
    """Partition one Λ-epoch's reads into at most ``workers`` batches.

    Workload affinity first: every request keyed by the same
    ``(loads fingerprint, exact_k)`` lands in the same batch, so exactly
    one worker pays that workload's cold gather and the rest of its
    requests hit that worker's cache.  New workloads go to the batch with
    the least estimated work, where a workload's first request weighs a
    cold gather (~4x) and repeats weigh a warm trace (1x) — the ratio
    measured on the BT(256) churn mix.
    """
    assignment: dict[tuple, int] = {}
    weights = [0.0] * workers
    batches: list[list[tuple[int, Request]]] = [[] for _ in range(workers)]
    for position, request, key in pending:
        batch = assignment.get(key)
        if batch is None:
            batch = min(range(workers), key=weights.__getitem__)
            assignment[key] = batch
            weights[batch] += 4.0
        else:
            weights[batch] += 1.0
        batches[batch].append((position, request))
    return [batch for batch in batches if batch]


def _replay_process(
    service: PlacementService,
    tree: TreeNetwork,
    events: Sequence[TraceEvent],
    requests: Sequence[Request],
    workers: int,
    cache_entries: int,
    verify: bool,
) -> tuple[list[ReplayRecord], float, int]:
    """The ``mode="process"`` replay loop (see the module docstring).

    The parent walks the trace once: mutations apply serially to the
    authoritative ``service`` (their responses are the serial ones by
    construction), ``Stats`` reads run inline on the parent, and
    solve/sweep reads buffer until their Λ-epoch closes — at which point
    the epoch's reads are partitioned by workload affinity and submitted
    to the pool, overlapping with the parent's continuing walk.  The wall
    clock covers the walk plus the drain of all worker batches, but not
    pool spawn/replica construction (a long-lived daemon pays those once)
    or verification.
    """
    state = service.state
    total = len(requests)
    responses: list[Response | None] = [None] * total
    elapsed_by_position = [0.0] * total
    available_at: list[frozenset[NodeId] | None] = [None] * total
    futures: list[Future] = []
    pending: list[tuple[int, Request, tuple]] = []
    epoch = 0
    epoch_fleet: dict | None = None

    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_process_worker_init,
        initargs=(
            tree,
            1,  # placeholder capacity; every batch resyncs the real fleet
            service.backend,
            cache_entries,
        ),
    ) as executor:

        def flush() -> None:
            nonlocal pending
            if pending:
                for batch in _partition_epoch(pending, workers):
                    futures.append(
                        executor.submit(
                            _process_worker_serve, epoch, epoch_fleet, batch
                        )
                    )
                pending = []

        # Force the worker processes (and their replica services) to exist
        # before timing starts.
        for ping in [executor.submit(_process_worker_ping) for _ in range(workers)]:
            ping.result()

        wall_start = time.perf_counter()
        fingerprint = state.availability_fingerprint()
        for position, request in enumerate(requests):
            if isinstance(request, (SolveRequest, SweepRequest)):
                if epoch_fleet is None:
                    # First read of this epoch: capture the fleet once.
                    # Mutations that did not change Λ may follow inside
                    # the same epoch — harmless, the read path depends on
                    # Λ and the request only.
                    epoch_fleet = state.state_dict()
                if verify:
                    available_at[position] = state.available()
                pending.append(
                    (
                        position,
                        request,
                        (fingerprint_loads(request.loads), request.exact_k),
                    )
                )
                continue
            # Stats and every mutating request run on the authoritative
            # service, in trace order.
            if verify:
                available_at[position] = state.available()
            response, elapsed = _timed_submit(service, request)
            responses[position] = response
            elapsed_by_position[position] = elapsed
            current = state.availability_fingerprint()
            if current != fingerprint:
                # Λ changed: the epoch closes, its reads dispatch now and
                # overlap with the rest of the walk.
                flush()
                epoch += 1
                epoch_fleet = None
                fingerprint = current
        flush()
        for future in futures:
            for position, response, elapsed in future.result():
                responses[position] = response
                elapsed_by_position[position] = elapsed
        wall = time.perf_counter() - wall_start

    verified = 0
    if verify:
        for position, request in enumerate(requests):
            if _verify_response(
                tree,
                available_at[position] or frozenset(),
                request,
                responses[position],
            ):
                verified += 1

    records = [
        ReplayRecord(
            index=position,
            event=events[position],
            request=requests[position],
            response=responses[position],
            elapsed_s=elapsed_by_position[position],
        )
        for position in range(total)
    ]
    return records, wall, verified


def replay_trace(
    tree: TreeNetwork,
    events: Sequence[TraceEvent],
    capacity: int | Mapping[NodeId, int] = 4,
    cache_entries: int = 64,
    verify: bool = False,
    service: PlacementService | None = None,
    workers: int = 1,
    mode: str = "thread",
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
        Process-mode replicas run on the service's backend.
    workers:
        Number of workers driving the service.  ``1`` (default) is the
        serial replay.  With more, read-only requests are fanned out per
        ``mode``; the response payloads (:func:`response_payload`) are
        bit-identical to the serial replay, per-request latencies
        overlap, and ``wall_s`` measures the actual elapsed time (so
        ``throughput_rps`` reflects the concurrency).
    mode:
        Concurrency mode when ``workers > 1`` (ignored at ``workers=1``).
        ``"thread"`` (default) fans read-only runs over a thread pool
        sharing the one service; ``"process"`` batches reads per Λ-epoch
        across a pool of replica processes (see the module docstring).
    """
    if mode not in ("thread", "process"):
        raise ValueError(f"unknown replay mode {mode!r}: expected 'thread' or 'process'")
    if service is None:
        service = PlacementService(tree, capacity, cache_entries=cache_entries)
    index_map = node_index(tree)
    workers = max(1, int(workers))
    requests = [event_to_request(tree, event, index_map) for event in events]

    if workers > 1 and mode == "process":
        records, wall, verified = _replay_process(
            service, tree, events, requests, workers, cache_entries, verify
        )
        # Repair counters reflect the coordinating service only: the
        # read-only fan-out runs in replica processes whose caches (and
        # counters) are private to them.
        return ReplayReport(
            records=records,
            wall_s=wall,
            verified=verified,
            backend=service.backend.name,
            workers=workers,
            mode="process",
            repairs=service.cache.stats.repairs,
            repair_hits=service.cache.stats.repair_hits,
        )

    records: list[ReplayRecord] = []
    verified = 0
    wall = 0.0

    def record(position: int, response: Response, elapsed: float) -> None:
        records.append(
            ReplayRecord(
                index=position,
                event=events[position],
                request=requests[position],
                response=response,
                elapsed_s=elapsed,
            )
        )

    if workers == 1:
        for position, request in enumerate(requests):
            # Read Λ from the fleet state, not service.available(): the
            # latter would prime the service's memoized Λ fingerprint
            # outside the timer and flatter the measured latencies.
            available = service.state.available() if verify else frozenset()
            response, elapsed = _timed_submit(service, request)
            wall += elapsed
            if verify and _verify_response(tree, available, request, response):
                verified += 1
            record(position, response, elapsed)
    else:
        with ThreadPoolExecutor(max_workers=workers) as executor:
            position = 0
            while position < len(requests):
                if isinstance(requests[position], READ_ONLY_REQUESTS):
                    end = position
                    while end < len(requests) and isinstance(
                        requests[end], READ_ONLY_REQUESTS
                    ):
                        end += 1
                    # Λ cannot change inside a read-only run, so one
                    # capture verifies the whole segment.
                    available = service.state.available() if verify else frozenset()
                    start = time.perf_counter()
                    outcomes = list(
                        executor.map(
                            lambda request: _timed_submit(service, request),
                            requests[position:end],
                        )
                    )
                    wall += time.perf_counter() - start
                    for offset, (response, elapsed) in enumerate(outcomes):
                        at = position + offset
                        if verify and _verify_response(
                            tree, available, requests[at], response
                        ):
                            verified += 1
                        record(at, response, elapsed)
                    position = end
                else:
                    available = service.state.available() if verify else frozenset()
                    response, elapsed = _timed_submit(service, requests[position])
                    wall += elapsed
                    if verify and _verify_response(
                        tree, available, requests[position], response
                    ):
                        verified += 1
                    record(position, response, elapsed)
                    position += 1
    return ReplayReport(
        records=records,
        wall_s=wall,
        verified=verified,
        backend=service.backend.name,
        workers=workers,
        mode="serial" if workers == 1 else "thread",
        repairs=service.cache.stats.repairs,
        repair_hits=service.cache.stats.repair_hits,
    )
