"""The placement service: typed requests, one request loop, cached solving.

:class:`PlacementService` is the long-lived daemon object: it owns a
:class:`~repro.service.state.FleetState` (tree, residual capacity, active
tenants) and a :class:`~repro.service.cache.GatherTableCache`, and serves
six request types:

``SolveRequest``
    Read-only placement query: optimal blue set and cost for a workload
    against the *current* availability Λ_t.  Does not consume capacity.
``SweepRequest``
    Budget sweep over one workload; one gather (at the largest budget)
    answers every budget via the tables' columns.
``AdmitRequest``
    Solve + commit: the workload becomes an active tenant and its switches'
    capacity is charged.
``ReleaseRequest``
    A tenant departs; its switch slots return to the pool.
``DrainRequest``
    A switch leaves the fleet permanently; tenants using it are displaced,
    re-placed against the new Λ, and re-admitted.
``StatsRequest``
    Fleet and cache counters.

Every response carries ``elapsed_s`` (measured inside the service) and, for
placement-producing requests, ``cache_hit`` / ``cache_source`` — whether
(and through which cache layer) the answer avoided a gather.  Responses are
bit-identical to cold calls of :meth:`repro.core.solver.Solver.solve` /
:meth:`~repro.core.solver.Solver.sweep` on the equivalent instance;
``tests/test_service.py`` enforces this across seeded churn traces.

The warm path
-------------
A gather-table cache hit is served by ``table.place()`` alone: the
backend's colour trace plus its cost recompute
(:class:`repro.core.engine.Backend`), both running over tensors the
artifact already carries — no tree reconstruction, no per-node Python
walk.  A sweep first resolves every budget through the cache (memo,
table, repair, gather — the same lookups in the same order as one budget
at a time), then traces all the budgets a table answered with one
``table.sweep()``: on the compiled backend, one C colour call and one C
cost call.
The digests feeding the cache key are kept warm the same way: the Λ
fingerprint is maintained *incrementally* by the capacity tracker across
admit/release/drain (O(changed switches) per mutation instead of a full
re-digest), and each admitted tenant's loads digest is computed once and
carried on its :class:`~repro.service.state.TenantRecord`, so drain
re-placement never re-digests a displaced workload.  The resulting latency
split is reported by ``benchmarks/bench_service.py`` as the
``table_hit_ms`` / ``cost_flat_ms`` / ``cost_kernel_speedup`` columns of
``benchmarks/results/service_throughput.csv``.

Concurrency
-----------
:meth:`PlacementService.submit` is thread-safe: a writer-preferring
:class:`ReadWriteLock` lets read-only requests run concurrently while
mutating requests hold the fleet alone.  The gather-table cache carries
its own mutex and serves immutable artifacts, so a warm hit traces its
placement without any lock held; racing cold misses each gather
(bit-identical) tables and the cache keeps the widest.  Response
*payloads* never depend on thread interleaving — only the ``cache_hit`` /
``cache_source`` diagnostics do.

Failure semantics
-----------------
Mutating handlers are atomic-or-reported.  An admit against an empty Λ
raises a typed :class:`~repro.exceptions.CapacityError` *before* touching
any state (it would otherwise "succeed" with an empty placement).  A drain
never unwinds mid-loop: each displaced tenant is re-placed independently,
failures land in :attr:`DrainResponse.failed` (the tenant is evicted and
counted as released), and the lifetime invariant
``num_tenants == admitted_total - released_total`` holds on every path.
Only applied mutations reach the write-ahead journal, which is what makes
:meth:`PlacementService.restore` (snapshot + journal tail, see
:mod:`repro.service.persistence`) resume bit-identically.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterator, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.core.engine import DEFAULT_BACKEND, Backend
from repro.core.solver import GatherTable, Placement, Solver
from repro.core.tree import (
    NodeId,
    TreeNetwork,
    check_load_total,
    fingerprint_loads,
)
from repro.exceptions import (
    CapacityError,
    InvalidBudgetError,
    PersistenceError,
    RepairError,
    ReproError,
    WorkloadError,
)
from repro.service.cache import CachedSolution, CacheKey, GatherTableCache
from repro.service.state import FleetState, TenantRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (persistence imports api)
    from repro.service.persistence import Journal

__all__ = [
    "AdmitRequest",
    "AdmitResponse",
    "DrainFailure",
    "DrainRequest",
    "DrainResponse",
    "PlacementService",
    "ReadWriteLock",
    "ReleaseRequest",
    "ReleaseResponse",
    "Request",
    "Response",
    "SolveRequest",
    "SolveResponse",
    "StatsRequest",
    "StatsResponse",
    "SweepRequest",
    "SweepResponse",
]


def _digest_loads(items: tuple[tuple[NodeId, int], ...]) -> str:
    """:func:`fingerprint_loads` of a frozen load mapping given as its items."""
    return fingerprint_loads(dict(items))


def _freeze_loads(loads: Mapping[NodeId, int], num_switches: int) -> dict[NodeId, int]:
    """Copy a load mapping, validating values are non-negative integers.

    The total plus ``num_switches`` must fit the kernels' int64 message
    counts (:func:`~repro.core.tree.check_load_total`).
    """
    frozen: dict[NodeId, int] = {}
    for node, value in loads.items():
        if type(value) is int and value >= 0:
            frozen[node] = value
            continue
        try:
            count = int(value)
            valid = count == value and count >= 0
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise WorkloadError(
                f"load of switch {node!r} must be a non-negative integer, got {value!r}"
            )
        frozen[node] = count
    check_load_total(frozen.values(), num_switches, WorkloadError)
    return frozen


# --------------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SolveRequest:
    """Read-only optimal-placement query for one workload."""

    loads: Mapping[NodeId, int]
    budget: int
    exact_k: bool = False


@dataclass(frozen=True)
class SweepRequest:
    """Budget sweep over one workload (Figure 3 / Figure 6 style)."""

    loads: Mapping[NodeId, int]
    budgets: tuple[int, ...]
    exact_k: bool = False


@dataclass(frozen=True)
class AdmitRequest:
    """Admit a tenant: solve, then commit capacity for the chosen switches."""

    tenant_id: str
    loads: Mapping[NodeId, int]
    budget: int
    exact_k: bool = False


@dataclass(frozen=True)
class ReleaseRequest:
    """An active tenant departs, returning its switch slots."""

    tenant_id: str


@dataclass(frozen=True)
class DrainRequest:
    """Remove a switch from service, displacing and re-placing its tenants."""

    switch: NodeId


@dataclass(frozen=True)
class StatsRequest:
    """Snapshot of fleet and cache counters."""


Request = (
    SolveRequest
    | SweepRequest
    | AdmitRequest
    | ReleaseRequest
    | DrainRequest
    | StatsRequest
)

#: Request types that mutate fleet state (journaled, serialized by the
#: write side of the service's read/write lock).
MUTATING_REQUESTS = (AdmitRequest, ReleaseRequest, DrainRequest)


# --------------------------------------------------------------------------- #
# responses
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SolveResponse:
    """Answer to a :class:`SolveRequest`.

    ``cache_source`` records how deep the request had to go: ``"memo"``
    (solution memo, no trace at all), ``"table"`` (cached gather table,
    colour trace only — the warm hit the batched kernel exists for),
    ``"repair"`` (availability miss answered by delta-repairing a cached
    same-workload table), or ``"gather"`` (cold).  ``cache_hit`` is true
    for the first two.
    """

    blue_nodes: frozenset[NodeId]
    cost: float
    predicted_cost: float
    budget: int
    cache_hit: bool
    elapsed_s: float
    cache_source: str = "gather"


@dataclass(frozen=True)
class SweepResponse:
    """Answer to a :class:`SweepRequest`: one entry per requested budget.

    ``cache_hit`` describes the widest-budget solve (the one that decides
    whether a gather was paid); ``cache_source`` is the deepest cache layer
    any budget of the sweep had to reach (``"gather"`` deepest, then
    ``"repair"``, ``"table"``, ``"memo"``).
    """

    costs: dict[int, float]
    placements: dict[int, frozenset[NodeId]]
    cache_hit: bool
    elapsed_s: float
    cache_source: str = "gather"


@dataclass(frozen=True)
class AdmitResponse:
    """Answer to an :class:`AdmitRequest`."""

    tenant_id: str
    blue_nodes: frozenset[NodeId]
    cost: float
    predicted_cost: float
    budget: int
    cache_hit: bool
    elapsed_s: float
    cache_source: str = "gather"


@dataclass(frozen=True)
class ReleaseResponse:
    """Answer to a :class:`ReleaseRequest`."""

    tenant_id: str
    restored: frozenset[NodeId]
    elapsed_s: float


@dataclass(frozen=True)
class Replacement:
    """One displaced tenant's move recorded in a :class:`DrainResponse`."""

    tenant_id: str
    old_blue_nodes: frozenset[NodeId]
    new_blue_nodes: frozenset[NodeId]
    old_cost: float
    new_cost: float


@dataclass(frozen=True)
class DrainFailure:
    """One displaced tenant whose re-placement failed during a drain.

    The tenant's old placement was already torn down when the drain
    displaced it; a failed re-placement therefore means the tenant has
    left the fleet (counted as a release, so the lifetime invariant
    ``num_tenants == admitted_total - released_total`` holds).  ``error``
    carries the library failure that stopped the re-placement — typically
    a :class:`~repro.exceptions.CapacityError` because the drain emptied Λ.
    """

    tenant_id: str
    old_blue_nodes: frozenset[NodeId]
    old_cost: float
    error: str


@dataclass(frozen=True)
class DrainResponse:
    """Answer to a :class:`DrainRequest`.

    ``displaced`` lists the tenants that were successfully re-placed;
    ``failed`` the tenants whose re-placement failed (evicted, with the
    failure recorded).  A drain never raises halfway: whatever happens to
    the individual re-placements, the registry and the lifetime counters
    are consistent when the response returns.
    """

    switch: NodeId
    displaced: tuple[Replacement, ...]
    invalidated_entries: int
    elapsed_s: float
    failed: tuple[DrainFailure, ...] = ()


@dataclass(frozen=True)
class StatsResponse:
    """Answer to a :class:`StatsRequest`."""

    fleet: dict[str, int | float]
    cache: dict[str, int | float]
    requests: dict[str, int]
    elapsed_s: float


Response = (
    SolveResponse
    | SweepResponse
    | AdmitResponse
    | ReleaseResponse
    | DrainResponse
    | StatsResponse
)


# --------------------------------------------------------------------------- #
# the service
# --------------------------------------------------------------------------- #


class ReadWriteLock:
    """A writer-preferring read/write lock for the service's fleet state.

    Many readers may hold the lock at once; a writer holds it alone.
    Arriving writers block new readers (writer preference), so a steady
    stream of read-only requests cannot starve churn.  Not reentrant —
    the service only acquires it at the ``submit`` boundary, never from
    inside a handler.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
                self._writer_active = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


@dataclass
class _Placement:
    """Internal result of a cached solve (before response packaging)."""

    blue_nodes: frozenset[NodeId]
    cost: float
    predicted_cost: float
    budget: int
    cache_hit: bool
    cache_source: str


def _placement(solution: CachedSolution, budget: int, source: str) -> _Placement:
    """A resolved and traced budget, tagged with the cache layer that answered."""
    return _Placement(
        blue_nodes=solution.blue_nodes,
        cost=solution.cost,
        predicted_cost=solution.predicted_cost,
        budget=budget,
        cache_hit=source in ("memo", "table"),
        cache_source=source,
    )


class PlacementService:
    """Long-lived multi-tenant placement daemon.

    Parameters
    ----------
    tree:
        The shared network (topology and rates); per-request loads override
        the tree's own loads.
    capacity:
        Per-switch aggregation capacity ``a(s)`` (scalar or mapping).
    backend:
        The :class:`~repro.core.engine.Backend` every gather, repair,
        trace and cost recompute runs on (see :mod:`repro.core.engine`);
        on the compiled default a sweep's table-answered budgets are
        traced in one C call and costed in one more.
    cache_entries:
        LRU capacity of the gather-table cache.
    journal:
        Write-ahead journal to append mutating requests to (see
        :meth:`attach_journal`).
    max_repair_delta:
        Cache policy knob for incremental gather-table repair.  ``None``
        (the default) repairs every availability miss whose nearest cached
        same-workload table can be repaired by recomputing at most half
        the switches, however many switch flips away it is.  An int also
        bounds the flips a repair may bridge, and ``0`` switches repair
        off, restoring the historical invalidate-on-drain behaviour.  See
        :mod:`repro.service.cache`.
    """

    def __init__(
        self,
        tree: TreeNetwork,
        capacity: int | Mapping[NodeId, int],
        backend: Backend = DEFAULT_BACKEND,
        cache_entries: int = 64,
        journal: "Journal | None" = None,
        max_repair_delta: int | None = None,
    ) -> None:
        self._state = FleetState(tree, capacity)
        self._cache = GatherTableCache(
            max_entries=cache_entries, max_repair_delta=max_repair_delta
        )
        self._backend = backend
        # One immutable solver per budget semantics, bound to the backend.
        self._solvers = {
            exact_k: Solver(backend=backend, exact_k=exact_k) for exact_k in (False, True)
        }
        self._structure_fp = tree.structure_fingerprint()
        self._request_counts: dict[str, int] = {}
        self._counts_lock = threading.Lock()
        # Read/write lock at the submit boundary: read-only requests share
        # it, mutating requests hold it alone.  Handlers never acquire it
        # themselves (it is not reentrant).
        self._fleet_lock = ReadWriteLock()
        # Write-ahead journal: number of mutating requests applied over the
        # service lifetime, and the (optional) journal they are appended to.
        self._mutation_seq = 0
        self._journal: "Journal | None" = None
        if journal is not None:
            self.attach_journal(journal)
        # Digests of recently served frozen load mappings, keyed by their
        # items: a recurring workload's warm hit skips the O(n) string
        # digest, which otherwise dominates it.  Bounded like the table
        # cache; lru_cache is safe under concurrent readers.
        self._loads_digest = functools.lru_cache(maxsize=cache_entries)(_digest_loads)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> FleetState:
        """The fleet state (read-only use; mutate via requests)."""
        return self._state

    @property
    def cache(self) -> GatherTableCache:
        """The gather-table cache (exposed for stats and tests)."""
        return self._cache

    @property
    def backend(self) -> Backend:
        """The kernel backend every solve runs on."""
        return self._backend

    def solver(self, exact_k: bool = False) -> Solver:
        """The service's bound :class:`~repro.core.solver.Solver` for the semantics."""
        return self._solvers[bool(exact_k)]

    def available(self) -> frozenset[NodeId]:
        """Current availability set Λ_t (maintained by the capacity tracker)."""
        return self._state.available()

    @property
    def mutation_seq(self) -> int:
        """Number of mutating requests applied over the service lifetime.

        This is the journal position: a snapshot taken now records this
        value as ``seq``, and :meth:`restore` replays journal events
        ``seq ..`` to catch the fleet up.
        """
        return self._mutation_seq

    @property
    def journal(self) -> "Journal | None":
        """The attached write-ahead journal, if any."""
        return self._journal

    def attach_journal(self, journal: "Journal") -> None:
        """Start appending mutating requests to ``journal``.

        The journal must describe exactly this service's mutation history:
        its event count has to equal :attr:`mutation_seq` (zero for a
        fresh service and an empty journal; after :meth:`restore` with the
        same journal, the replayed tail).  Anything else would interleave
        two histories in one file and make the tail un-replayable.

        Raises
        ------
        PersistenceError
            On an event-count mismatch, or when the journal was recorded
            for a different network.
        """
        if journal.structure is not None and journal.structure != self._structure_fp:
            raise PersistenceError(
                "journal was recorded for a different network "
                f"(structure {journal.structure[:12]}…)"
            )
        if journal.event_count != self._mutation_seq:
            raise PersistenceError(
                f"journal holds {journal.event_count} mutating events but the "
                f"service has applied {self._mutation_seq}; a journal must "
                "describe exactly this service's history (restore from it, "
                "or start a fresh journal file)"
            )
        self._journal = journal

    # ------------------------------------------------------------------ #
    # cached solving
    # ------------------------------------------------------------------ #

    def _availability_fingerprint(self) -> str:
        # The tracker maintains the digest incrementally across
        # admit/release/drain, so this is O(1) on every request.
        return self._state.availability_fingerprint()

    def _key(self, loads_fp: str, exact_k: bool) -> CacheKey:
        return CacheKey(
            structure=self._structure_fp,
            available=self._availability_fingerprint(),
            loads=loads_fp,
            exact_k=exact_k,
        )

    def _freeze(self, loads: Mapping[NodeId, int]) -> dict[NodeId, int]:
        return _freeze_loads(loads, self._state.tree.num_switches)

    def _workload_tree(self, loads: Mapping[NodeId, int]) -> TreeNetwork:
        return self._state.tree.with_loads(loads, available=self.available())

    @staticmethod
    def _validate_budget(budget: int) -> int:
        try:
            value = int(budget)
        except (TypeError, ValueError) as exc:
            raise InvalidBudgetError(f"budget must be an integer, got {budget!r}") from exc
        if isinstance(budget, bool) or value != budget:
            raise InvalidBudgetError(f"budget must be an integer, got {budget!r}")
        if value < 0:
            raise InvalidBudgetError(f"budget must be non-negative, got {value}")
        return value

    def _effective_budget(self, budget: int) -> int:
        return min(self._validate_budget(budget), len(self.available()))

    def _solve_cached(
        self,
        loads: Mapping[NodeId, int],
        budget: int,
        exact_k: bool,
        loads_fp: str | None = None,
    ) -> _Placement:
        """Answer one placement query through the cache layers.

        Resolves the budget (:meth:`_resolve`), traces it with
        ``table.place()`` unless the memo answered, and memoizes the
        result.  ``loads_fp`` lets callers that already digested the loads
        (admission, drain re-placement) skip re-digesting them.
        """
        effective = self._effective_budget(budget)
        if loads_fp is None:
            loads_fp = self._loads_digest(tuple(loads.items()))
        key = self._key(loads_fp, exact_k)
        source, found = self._resolve(key, loads, effective, exact_k)
        if isinstance(found, GatherTable):
            found = self._memoize(key, found.place(effective))
        return _placement(found, effective, source)

    def _resolve(
        self,
        key: CacheKey,
        loads: Mapping[NodeId, int],
        effective: int,
        exact_k: bool,
    ) -> tuple[str, CachedSolution | GatherTable]:
        """The cache layer answering ``key`` at ``effective``, and its answer.

        Fast path: solution memo (no trace at all).  Middle path: cached
        :class:`~repro.core.solver.GatherTable` — since the artifact owns
        its workload network no tree is reconstructed; this is the
        colour-only warm hit.  Slow path: repair a cached neighbour, or
        build the workload network and gather.  Returns ``(source, memo
        or table)``; a table still has to be traced.
        """
        memo = self._cache.solution(key, effective)
        if memo is not None:
            return "memo", memo
        table = self._cache.lookup(key, effective)
        if table is not None:
            return "table", table
        stored = self._cache.stored_budget(key) or 0
        gather_budget = max(effective, stored)
        # Availability miss: before paying a cold O(n·k²) gather, try
        # delta-repairing the nearest cached same-workload table — the
        # post-churn fast path (O(depth·k²·|delta|), bit-identical).
        table = self._repair_from_neighbor(key, gather_budget)
        if table is not None:
            return "repair", table
        workload_tree = self._workload_tree(loads)
        table = self._solvers[exact_k].gather(workload_tree, gather_budget)
        self._cache.store(key, table)
        return "gather", table

    def _memoize(self, key: CacheKey, placement: Placement) -> CachedSolution:
        """Store a traced placement in the solution memo and return it."""
        solution = CachedSolution(
            blue_nodes=placement.blue_nodes,
            cost=placement.cost,
            predicted_cost=placement.predicted_cost,
        )
        self._cache.store_solution(key, placement.budget, solution)
        return solution

    def _repair_from_neighbor(
        self, key: CacheKey, budget: int
    ) -> GatherTable | None:
        """Answer an availability miss by delta-repairing a cached table.

        Asks the cache for the nearest same-family candidate (same
        structure, loads, semantics — differing from the live Λ alone,
        within the ``max_repair_delta`` policy), repairs it by the delta
        (the new table shares every clean column with its source), and
        stores the repaired table under the missed key.  Returns ``None`` when no candidate qualifies or the
        repair refuses (:class:`~repro.exceptions.RepairError`); the
        caller then cold-gathers.
        """
        candidate = self._cache.repair_candidate(key, budget, self.available())
        if candidate is None:
            return None
        source_table, delta = candidate
        try:
            repaired = source_table.repair(delta)
        except RepairError:
            return None
        self._cache.store(key, repaired)
        self._cache.note_repair()
        return repaired

    # ------------------------------------------------------------------ #
    # request handlers
    # ------------------------------------------------------------------ #

    def _handle_solve(self, request: SolveRequest) -> SolveResponse:
        start = time.perf_counter()
        placement = self._solve_cached(
            self._freeze(request.loads), request.budget, request.exact_k
        )
        return SolveResponse(
            blue_nodes=placement.blue_nodes,
            cost=placement.cost,
            predicted_cost=placement.predicted_cost,
            budget=placement.budget,
            cache_hit=placement.cache_hit,
            elapsed_s=time.perf_counter() - start,
            cache_source=placement.cache_source,
        )

    def _handle_sweep(self, request: SweepRequest) -> SweepResponse:
        start = time.perf_counter()
        if not request.budgets:
            return SweepResponse(
                costs={}, placements={}, cache_hit=True,
                elapsed_s=time.perf_counter() - start,
                cache_source="memo",
            )
        loads = self._freeze(request.loads)
        budgets = sorted({self._validate_budget(b) for b in request.budgets})
        loads_fp = self._loads_digest(tuple(loads.items()))
        key = self._key(loads_fp, request.exact_k)
        # Resolving the largest budget first populates the table every
        # smaller budget then hits.  Each distinct effective budget is
        # resolved once, in that order; a repeat would have hit the memo
        # its first occurrence stores, so it reads the memo after tracing.
        order = [budgets[-1], *budgets[:-1]]
        effective = {budget: self._effective_budget(budget) for budget in order}
        resolved: dict[int, tuple[str, CachedSolution | GatherTable]] = {}
        for budget in order:
            if effective[budget] not in resolved:
                resolved[effective[budget]] = self._resolve(
                    key, loads, effective[budget], request.exact_k
                )
        # Every budget answered by a table is traced in one sweep per table.
        pending: dict[int, tuple[GatherTable, list[int]]] = {}
        for value, (_, found) in resolved.items():
            if isinstance(found, GatherTable):
                pending.setdefault(id(found), (found, []))[1].append(value)
        solutions = {
            value: solution
            for value, (_, solution) in resolved.items()
            if isinstance(solution, CachedSolution)
        }
        for table, values in pending.values():
            for value, placement in table.sweep(values).items():
                solutions[value] = self._memoize(key, placement)

        answers: dict[int, _Placement] = {}
        first_seen: set[int] = set()
        for budget in order:
            value = effective[budget]
            if value in first_seen:
                memo = self._cache.solution(key, value)
                answers[budget] = _placement(memo or solutions[value], value, "memo")
            else:
                first_seen.add(value)
                answers[budget] = _placement(solutions[value], value, resolved[value][0])
        # The deepest layer any budget had to reach: the widest budget
        # decides whether a gather (or a repair) was paid, but a sweep
        # whose remaining budgets traced placements out of cached tables
        # is a "table" response, not a "memo" one.
        sources = {answer.cache_source for answer in answers.values()}
        source = next(
            (
                layer
                for layer in ("gather", "repair", "table", "memo")
                if layer in sources
            ),
            "memo",
        )
        return SweepResponse(
            costs={budget: answer.cost for budget, answer in answers.items()},
            placements={
                budget: answer.blue_nodes for budget, answer in answers.items()
            },
            cache_hit=answers[budgets[-1]].cache_hit,
            elapsed_s=time.perf_counter() - start,
            cache_source=source,
        )

    def _require_capacity(self, what: str) -> None:
        """Typed boundary check: committing placements needs a non-empty Λ.

        Without it, an admit against a fully drained/saturated fleet clamps
        the effective budget to 0 and "succeeds" with an *empty* placement
        — a tenant registered while holding no aggregation switch at all,
        paying the no-aggregation cost.  Raising
        :class:`~repro.exceptions.CapacityError` here keeps that failure
        typed, early, and at the service boundary.  Read-only queries are
        deliberately exempt: asking what a workload would cost on an empty
        fleet is a legitimate question with a well-defined answer.
        """
        if not self.available():
            raise CapacityError(
                f"cannot {what}: no aggregation capacity available "
                "(every switch is drained or saturated)"
            )

    def _handle_admit(self, request: AdmitRequest) -> AdmitResponse:
        start = time.perf_counter()
        self._require_capacity(f"admit tenant {request.tenant_id!r}")
        loads = self._freeze(request.loads)
        # Digest the workload once: the solve keys the cache with it and
        # the record carries it, so a later drain re-places this tenant
        # without recomputing the full loads digest.
        loads_fp = self._loads_digest(tuple(loads.items()))
        placement = self._solve_cached(
            loads, request.budget, request.exact_k, loads_fp=loads_fp
        )
        record = TenantRecord(
            tenant_id=request.tenant_id,
            loads=loads,
            budget=request.budget,
            exact_k=request.exact_k,
            blue_nodes=placement.blue_nodes,
            cost=placement.cost,
            predicted_cost=placement.predicted_cost,
            loads_fp=loads_fp,
        )
        self._state.register(record)
        return AdmitResponse(
            tenant_id=request.tenant_id,
            blue_nodes=placement.blue_nodes,
            cost=placement.cost,
            predicted_cost=placement.predicted_cost,
            budget=placement.budget,
            cache_hit=placement.cache_hit,
            elapsed_s=time.perf_counter() - start,
            cache_source=placement.cache_source,
        )

    def _handle_release(self, request: ReleaseRequest) -> ReleaseResponse:
        start = time.perf_counter()
        _, restored = self._state.withdraw(request.tenant_id)
        return ReleaseResponse(
            tenant_id=request.tenant_id,
            restored=restored,
            elapsed_s=time.perf_counter() - start,
        )

    def _handle_drain(self, request: DrainRequest) -> DrainResponse:
        """Drain a switch, re-placing (or failing over) its displaced tenants.

        The loop is exception-safe per tenant: a re-placement that fails
        with a library error (e.g. the drain emptied Λ, so re-admission
        would violate the capacity boundary) is recorded in the response's
        ``failed`` tuple and counted as a forced release — it never
        unwinds the handler mid-loop.  Earlier re-placements stay
        registered, later displaced tenants are still processed, and
        ``num_tenants == admitted_total - released_total`` holds on every
        exit path.
        """
        start = time.perf_counter()
        displaced = self._state.drain(request.switch)
        if self._cache.repair_enabled:
            # Repair-instead-of-invalidate: entries mentioning the drained
            # switch stay cached — each is a repair source exactly one
            # availability flip away from the post-drain Λ, so the displaced
            # tenants below (and follow-up solves) delta-repair instead of
            # paying cold gathers.  They age out through the LRU as usual.
            invalidated = 0
        else:
            invalidated = self._cache.invalidate_switches({request.switch})
        replacements: list[Replacement] = []
        failures: list[DrainFailure] = []
        for record in displaced:
            try:
                self._require_capacity(f"re-place displaced tenant {record.tenant_id!r}")
                # The record carries the loads digest from admission time,
                # so re-placing a displaced tenant skips the full recompute.
                placement = self._solve_cached(
                    record.loads, record.budget, record.exact_k, loads_fp=record.loads_fp
                )
                self._state.register(
                    TenantRecord(
                        tenant_id=record.tenant_id,
                        loads=record.loads,
                        budget=record.budget,
                        exact_k=record.exact_k,
                        blue_nodes=placement.blue_nodes,
                        cost=placement.cost,
                        predicted_cost=placement.predicted_cost,
                        loads_fp=record.loads_fp,
                    ),
                    new_admission=False,
                )
            except ReproError as exc:
                # The tenant's old placement is already torn down; evicting
                # it (and saying so) is the consistent outcome.
                self._state.note_forced_release()
                failures.append(
                    DrainFailure(
                        tenant_id=record.tenant_id,
                        old_blue_nodes=record.blue_nodes,
                        old_cost=record.cost,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            replacements.append(
                Replacement(
                    tenant_id=record.tenant_id,
                    old_blue_nodes=record.blue_nodes,
                    new_blue_nodes=placement.blue_nodes,
                    old_cost=record.cost,
                    new_cost=placement.cost,
                )
            )
        return DrainResponse(
            switch=request.switch,
            displaced=tuple(replacements),
            invalidated_entries=invalidated,
            elapsed_s=time.perf_counter() - start,
            failed=tuple(failures),
        )

    def _handle_stats(self, request: StatsRequest) -> StatsResponse:
        start = time.perf_counter()
        with self._counts_lock:
            counts = dict(self._request_counts)
        return StatsResponse(
            fleet=self._state.residual_summary(),
            cache=self._cache.stats.snapshot(),
            requests=counts,
            elapsed_s=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    # the request loop
    # ------------------------------------------------------------------ #

    def _serve(self, request: Request) -> Response:
        """Dispatch one request to its handler (no locking, no journal)."""
        kind = type(request).__name__
        with self._counts_lock:
            self._request_counts[kind] = self._request_counts.get(kind, 0) + 1
        if isinstance(request, SolveRequest):
            return self._handle_solve(request)
        if isinstance(request, SweepRequest):
            return self._handle_sweep(request)
        if isinstance(request, AdmitRequest):
            return self._handle_admit(request)
        if isinstance(request, ReleaseRequest):
            return self._handle_release(request)
        if isinstance(request, DrainRequest):
            return self._handle_drain(request)
        if isinstance(request, StatsRequest):
            return self._handle_stats(request)
        raise WorkloadError(f"unknown request type: {type(request).__name__}")

    def submit(self, request: Request) -> Response:
        """Serve one request and return its typed response.

        Safe to call from multiple threads.  Read-only requests (solve /
        sweep / stats) share the fleet lock and run concurrently — the
        gather-table cache is internally synchronized, and the
        :class:`~repro.core.solver.GatherTable` artifacts it serves are
        immutable, so warm hits are effectively lock-free.  Mutating
        requests (admit / release / drain) take the write side, run alone,
        and are appended to the write-ahead journal (when one is attached)
        *after* the handler returns — a request that raises is never
        journaled, so a journal line always records an applied mutation.
        """
        if isinstance(request, MUTATING_REQUESTS):
            with self._fleet_lock.write_locked():
                response = self._serve(request)
                self._mutation_seq += 1
                if self._journal is not None:
                    from repro.service.events import request_to_event

                    try:
                        # Deliberate WAL-under-write-lock: the journal line
                        # must land before any reader can observe the
                        # mutation, else a crash between unlock and append
                        # replays to a fleet the readers never saw.
                        self._journal.append(  # lint: allow(blocking-under-lock)
                            request_to_event(request)
                        )
                    except BaseException as exc:
                        # The mutation is applied but not journaled: the
                        # journal now has a hole and replaying it would
                        # silently diverge.  Detach it on *any* failure so
                        # the hole cannot grow.  Expected append failures
                        # (I/O, serialization, typed persistence errors)
                        # are surfaced as PersistenceError; anything else
                        # is a bug and propagates as itself — the operator
                        # must take a fresh snapshot before trusting this
                        # journal file again either way.
                        self._journal = None
                        if not isinstance(
                            exc, (OSError, TypeError, ValueError, ReproError)
                        ):
                            raise
                        raise PersistenceError(
                            "write-ahead journal append failed after the "
                            "mutation was applied; journaling is now "
                            "disabled — take a fresh snapshot before "
                            "relying on this journal"
                        ) from exc
                return response
        with self._fleet_lock.read_locked():
            return self._serve(request)

    # ------------------------------------------------------------------ #
    # persistence (see :mod:`repro.service.persistence`)
    # ------------------------------------------------------------------ #

    def snapshot(self, include_cache: bool = True) -> dict:
        """A versioned, JSON-serializable snapshot of the fleet state.

        Captures the tenant registry, the capacity tracker's residuals and
        drained set, the lifetime counters, and the journal position
        (:attr:`mutation_seq`).  With ``include_cache`` (the default) it
        also records the cache's *hot workloads* — the (loads, semantics,
        budget) of every cached gather table, in LRU order — so
        :meth:`restore` can pre-warm the cache by re-gathering them.  The
        snapshot is taken under the write lock, so it is a consistent
        point-in-time view even on a concurrently-serving service.

        Serialize with :func:`repro.service.persistence.write_snapshot`.
        """
        from repro.service.persistence import build_snapshot

        with self._fleet_lock.write_locked():
            return build_snapshot(self, include_cache=include_cache)

    @classmethod
    def restore(
        cls,
        tree: TreeNetwork,
        snapshot: "dict | str | None" = None,
        journal: "Journal | str | Sequence | None" = None,
        *,
        capacity: int | Mapping[NodeId, int] | None = None,
        cache_entries: int = 64,
        prewarm: bool = True,
    ) -> "PlacementService":
        """Rebuild a service from a snapshot and/or a write-ahead journal.

        Loads the snapshot (a :meth:`snapshot` payload, or a path written
        by :func:`repro.service.persistence.write_snapshot`), replays the
        journal tail — the mutating events past the snapshot's ``seq`` —
        and optionally pre-warms the gather-table cache from the
        snapshot's hot workloads.  The restored service then answers every
        request with the same placements, costs, and counters as a service
        that never went down: mutating requests are deterministic given
        the fleet state, so replaying the tail reproduces the exact
        registry, residuals, and Λ digest (``tests/test_service_persistence.py``
        pins this bit-for-bit).  What is *not* restored is diagnostics:
        cache hit counters and per-kind request counts restart from the
        journal replay, so ``Stats`` responses differ from an
        uninterrupted run even though every placement answer agrees.

        With ``snapshot=None`` the whole journal is replayed from an empty
        fleet (journal-only recovery; ``capacity`` must then be given,
        since only snapshots record the initial capacities).  Passing a
        :class:`~repro.service.persistence.Journal` *instance* additionally
        re-attaches it, so the restored service keeps appending where the
        crashed one stopped.

        The restored service runs on
        :data:`~repro.core.engine.DEFAULT_BACKEND`; the backends are
        bit-identical, so the one the crashed service used changes
        latency, never answers.  Snapshots written before the backend
        knob record ``engine`` / ``color`` / ``cost_kernel`` names; they
        restore unchanged and the names are ignored.

        Raises
        ------
        PersistenceError
            On an unknown snapshot version, a structure-fingerprint
            mismatch (snapshot or journal recorded for a different
            network), a journal shorter than the snapshot's ``seq``, or
            non-mutating events in the journal.
        """
        from repro.service.persistence import restore_service

        return restore_service(
            cls,
            tree,
            snapshot,
            journal,
            capacity=capacity,
            cache_entries=cache_entries,
            prewarm=prewarm,
        )
