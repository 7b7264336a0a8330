"""Multi-tenant placement service: a long-lived daemon around SOAR.

The paper's online setting (Section 5.2) assumes workloads arrive once and
never leave.  A production aggregation service faces the full lifecycle —
arrivals *and* departures, switch maintenance, and a heavy stream of
repeated placement queries that must be answered far faster than a cold
:meth:`repro.Solver.solve`.  This package is that service layer.

Module tour
-----------
:mod:`repro.service.state`
    The mutable fleet: the shared network, the residual per-switch
    aggregation capacity (via :class:`~repro.online.capacity.CapacityTracker`,
    now with ``release`` and ``drain``), and the registry of active tenants
    with the placements they hold.

:mod:`repro.service.cache`
    The speed multiplier: an LRU cache of public
    :class:`repro.GatherTable` artifacts keyed by (structure fingerprint,
    Λ fingerprint, loads digest, budget semantics).  A table
    gathered at budget ``k`` answers every budget ``k' <= k`` through
    ``table.place(k')`` (*budget upcasting*) — the backend's colour trace
    plus its cost recompute (:class:`repro.Backend`; on the compiled one,
    one C call each for every budget a sweep needs),
    both over tensors the artifact already carries, since it owns its
    workload network — and a per-budget solution memo answers exact
    repeats without even a colour trace.  Keys digest everything a gather
    depends on, so hits are always bitwise-correct; the digests themselves
    stay warm too (the Λ fingerprint is maintained incrementally by the
    capacity tracker, admitted tenants carry their loads digest), and
    invalidation (after drains) only reclaims entries that can never be
    looked up again.  The warm-hit latency split —
    ``table_hit_ms`` / ``pr3_warm_ms`` / ``legacy_warm_ms`` /
    ``cost_flat_ms`` / ``cost_reference_ms`` / ``cost_kernel_speedup`` —
    is published by ``benchmarks/bench_service.py`` into
    ``benchmarks/results/service_throughput.csv``.

:mod:`repro.service.api`
    The typed request surface — ``Solve``, ``Sweep``, ``Admit``,
    ``Release``, ``Drain``, ``Stats`` — and :class:`PlacementService`, the
    daemon object dispatching them.  ``submit`` is the one request loop:
    each request is served on its own, in the order it arrives.

:mod:`repro.service.events`
    Serializable churn traces: :class:`TraceEvent`, JSON-lines round-trip
    (:func:`read_trace` / :func:`write_trace`), and a seeded synthetic
    generator (:func:`generate_churn_trace`) whose arrival/departure/drain
    mix exercises the cache the way recurring tenants would.

:mod:`repro.service.driver`
    The traffic-replay driver: feed a trace to a service, time every
    request, report throughput / per-kind latency / hit rate, and (with
    ``verify=True``) assert every placement response is bit-identical to a
    direct cold solve — the differential harness behind
    ``tests/test_service.py`` and ``soar-repro serve-replay``.  Replay is
    serial, one ``submit`` per event in trace order.

:mod:`repro.service.persistence`
    Crash safety: versioned fleet snapshots
    (:meth:`PlacementService.snapshot` /
    :meth:`PlacementService.restore`) and the append-only write-ahead
    :class:`Journal` of mutating requests (JSON-lines, the same
    :class:`TraceEvent` format as churn traces).  A restore loads the
    snapshot, replays the journal tail, and optionally pre-warms the
    cache from the snapshot's hot workloads; the restored service then
    answers everything with the same placements, costs, and counters as
    a service that never went down.

Concurrency guarantees
----------------------
:meth:`PlacementService.submit` is thread-safe.  A writer-preferring
read/write lock serializes mutating requests (admit / release / drain)
against everything else, while read-only requests (solve / sweep / stats)
run concurrently: the gather-table cache is internally synchronized and
the :class:`repro.GatherTable` artifacts it serves are immutable, so warm
hits trace placements without holding any lock.  Two readers racing to
gather the same cold key both compute (bit-identical) tables and the
cache keeps the widest — answers never depend on the interleaving, only
``cache_hit`` / ``cache_source`` diagnostics do.

Snapshot format
---------------
A snapshot is a single JSON object (``kind: "fleet-snapshot"``,
``version: 1``) carrying the structure fingerprint of the network, the
journal position ``seq``, the fleet
state (initial + residual capacities, drained switches, consumed
assignments, lifetime counters, and the tenant registry with each
tenant's loads, budget, semantics, blue set, costs, and loads digest —
switches stringified exactly like trace events), the incremental Λ digest
(re-derived and checked on restore), and the cache's hot workloads in LRU
order.  Unknown versions, foreign structure fingerprints and torn or
truncated files are refused with
:class:`repro.exceptions.PersistenceError`.  Snapshots written before the
backend knob also carry ``engine`` / ``color`` / ``cost_kernel`` names;
they restore unchanged and the names are ignored.

Quickstart
----------
>>> from repro import bt_network
>>> from repro.service import PlacementService, SolveRequest
>>> service = PlacementService(bt_network(64), capacity=4)
>>> loads = {leaf: 3 for leaf in service.state.tree.leaves()}
>>> cold = service.submit(SolveRequest(loads=loads, budget=8))
>>> warm = service.submit(SolveRequest(loads=loads, budget=8))
>>> cold.cache_hit, warm.cache_hit, warm.cost == cold.cost
(False, True, True)
"""

from repro.service.api import (
    AdmitRequest,
    AdmitResponse,
    DrainFailure,
    DrainRequest,
    DrainResponse,
    PlacementService,
    ReadWriteLock,
    ReleaseRequest,
    ReleaseResponse,
    Replacement,
    Request,
    Response,
    SolveRequest,
    SolveResponse,
    StatsRequest,
    StatsResponse,
    SweepRequest,
    SweepResponse,
)
from repro.service.cache import CachedSolution, CacheKey, CacheStats, GatherTableCache
from repro.service.driver import (
    ReplayRecord,
    ReplayReport,
    replay_trace,
    response_payload,
)
from repro.service.events import (
    ChurnProfile,
    EVENT_KINDS,
    TRACE_HEADER_KIND,
    TraceEvent,
    check_trace_compatible,
    event_to_request,
    generate_churn_trace,
    node_index,
    read_trace,
    request_to_event,
    resolve_loads,
    trace_header,
    write_trace,
)
from repro.service.persistence import (
    Journal,
    MUTATING_KINDS,
    SNAPSHOT_KIND,
    SNAPSHOT_VERSION,
    read_snapshot,
    write_snapshot,
)
from repro.service.state import FleetState, TenantRecord

__all__ = [
    "AdmitRequest",
    "AdmitResponse",
    "CachedSolution",
    "CacheKey",
    "CacheStats",
    "ChurnProfile",
    "DrainFailure",
    "DrainRequest",
    "DrainResponse",
    "EVENT_KINDS",
    "FleetState",
    "GatherTableCache",
    "Journal",
    "MUTATING_KINDS",
    "PlacementService",
    "ReadWriteLock",
    "ReleaseRequest",
    "ReleaseResponse",
    "Replacement",
    "ReplayRecord",
    "ReplayReport",
    "Request",
    "Response",
    "SNAPSHOT_KIND",
    "SNAPSHOT_VERSION",
    "SolveRequest",
    "SolveResponse",
    "StatsRequest",
    "StatsResponse",
    "SweepRequest",
    "SweepResponse",
    "TRACE_HEADER_KIND",
    "TenantRecord",
    "TraceEvent",
    "check_trace_compatible",
    "event_to_request",
    "generate_churn_trace",
    "node_index",
    "read_snapshot",
    "read_trace",
    "replay_trace",
    "request_to_event",
    "response_payload",
    "resolve_loads",
    "trace_header",
    "write_snapshot",
    "write_trace",
]
