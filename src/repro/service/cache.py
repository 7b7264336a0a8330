"""Gather-table cache: memoized incremental recomputation for the service.

The gather phase dominates every solve (Figure 9: the colouring trace is two
orders of magnitude cheaper), and the gather tables depend on nothing but
the φ-BIC instance itself — topology, rates, loads, Λ, and the budget
semantics.  A long-lived service answering repeated placement queries over
a slowly-churning fleet therefore wants to compute each distinct gather
once and reuse it, in the spirit of the ``lru_cache`` idiom: this module is
that cache, made explicit so eviction, invalidation, and hit accounting are
observable.

Entries are the public :class:`repro.core.solver.GatherTable` artifacts —
self-contained (each owns the workload network it was gathered for) and
provenance-carrying, so a table hit is answered by ``table.place(budget)``
alone: no tree reconstruction, no solver state, just the colour trace
and the cost recompute.

Keys and correctness
--------------------
Entries are keyed by :class:`CacheKey` — the structure fingerprint
(topology + rates), the availability fingerprint of Λ at gather time, the
loads digest, and the ``exact_k`` semantics.  The kernel backend is not
part of it: the backends build bit-identical tables.  Because the key
digests *everything* the gather depends on, a cache hit is always
bitwise-correct: there is no way to observe a stale table through a
matching key.  Capacity churn that changes Λ simply changes the key, so
requests after an :class:`~repro.service.api.AdmitRequest` or
:class:`~repro.service.api.ReleaseRequest` look up different entries — and
when a release restores Λ to a previously-seen state, the old entries
become live hits again for free.

Budget upcasting
----------------
A :class:`~repro.core.solver.GatherTable` gathered at budget ``k`` carries
every column ``0 .. k``, so one entry answers *every* request at the same
key with budget ``k' <= k`` through ``table.place(k')`` (exactly how
:meth:`~repro.core.solver.GatherTable.sweep` works).  :meth:`lookup` treats
"stored budget too small" as a miss; the service then re-gathers at the
larger budget and :meth:`store` replaces the entry, so the cache converges
onto the widest table each key needs.

Solution memo
-------------
On top of the tables, each entry memoizes the fully-traced solutions per
effective budget (:meth:`solution` / :meth:`store_solution`): a repeated
identical query skips both the gather *and* the colour trace, costing only
the key digest.  Memoized solutions are the exact objects a cold solve
produced, so responses stay bit-identical.

Eviction and invalidation
-------------------------
Entries evict in LRU order beyond ``max_entries``.  Invalidation exists for
*reachability*, not correctness: after a drain, Λ can never again contain
the drained switch, so every entry whose availability set mentions it is
dead weight — :meth:`invalidate_switches` drops exactly those entries and
leaves the rest untouched.  It scans the (at most ``max_entries``) live
entries; it runs only on drains with repair disabled, so no index is kept
up to date on the hot store/evict path for it.

Repair versus invalidate
------------------------
Availability churn used to be a hard boundary: a changed Λ changes the
key, so every admit/release/drain turned the next solve per workload into
a cold O(n · k²) gather — and drains additionally *deleted* the affected
entries outright.  Delta repair replaces both behaviours.  On an
availability miss, :meth:`repair_candidate` looks for the nearest cached
table of the same *family* — identical structure, loads, and semantics,
differing only in Λ — and returns it together with the symmetric
difference between its recorded Λ and the live one.  The service then
repairs the cached table by that delta via
:meth:`repro.core.solver.GatherTable.repair` (O(depth · k² · |delta|),
bit-identical to a cold gather; the repaired table shares every clean
column with its source and owns fresh blocks for the dirty ones) and
stores the result under the missed key.  Under the same policy a drain
*keeps* the entries mentioning the drained switch: each is now a repair
source one switch away from the post-drain Λ, which is exactly the delta
repair was built for (they still evict LRU-wise once stale enough).

Repair is the first resort on every availability miss.  The nearest
same-family table (fewest switch flips, ties to the earliest stored)
qualifies whenever repairing it recomputes at most half the switches —
``len(dirty_ancestor_positions(...)) <= num_switches // 2``, the delta
switches plus their ancestors; past that the miss gathers instead.  The
repair the guard approves walks the same delta object, so it reuses the
guard's positions (:func:`~repro.core.flat.dirty_ancestor_positions`
remembers its last walk) and each repair walks once.  Flips are counted
on the tables' flat Λ masks (``flat.avail``) against one live mask per
miss; only the winner's frozenset delta is built.

The guard sits at the compiled backend's crossover.  Repair time over
cold-gather time, BT(1024), ``k = 16``, random flips, median of 60
(compiled) or 12 (numpy) back-to-back pairs with the networks built
beforehand (2-vCPU container; IQR in brackets):

=======  ==============  ==================  ==================
flips    dirty switches  compiled            numpy
=======  ==============  ==================  ==================
1        9 (1%)          0.18 (0.18–0.20)    0.18 (0.14–0.18)
16       84 (8%)         0.33 (0.30–0.36)    0.36 (0.33–0.38)
128      345 (34%)       0.68 (0.64–0.74)    0.67 (0.63–0.69)
256      510 (50%)       0.84 (0.81–0.87)    0.77 (0.71–0.83)
512      733 (72%)       1.08 (1.04–1.12)    0.91 (0.89–0.93)
=======  ==============  ==================  ==================

A numpy repair never loses; a compiled one loses past about 60% of the
switches, so half the tree keeps every repair the guard admits cheaper
than the gather it replaces on both backends.
``benchmarks/bench_service.py --repair`` (the 1, 2, 4 and 8 deepest
available switches, best of 25) puts a single-switch repair at
0.26–0.37 ms compiled (cold gather 1.4–1.5 ms, 4.1–5.8x) and 1.0–1.3 ms
numpy (8.1–9.1x).  Before repairs shared clean columns they cloned every
tensor first (about 3.8 MB here), which was most of a repair: 0.61–0.84
ms compiled.

The policy knob is ``max_repair_delta``.  ``None`` (the default) puts no
bound on the flips; an int additionally ignores candidates further than
that many flips away, and ``0`` disables repair entirely, restoring the
historical invalidate-on-drain behaviour.  Candidates whose tensor width
would change (the delta moves |Λ| across the requested budget) or whose
stored budget cannot answer the request are skipped; :class:`CacheStats`
counts candidate matches (``repair_hits``) and completed repairs
(``repairs``) separately so a silent fallback to cold gathers is
observable.

Concurrency
-----------
Every public method is safe to call from multiple threads: one mutex
guards the LRU order, the solution memos, and the stats counters.  The
cached :class:`~repro.core.solver.GatherTable` artifacts are immutable, so
a hit hands the table out and the (expensive) colour trace runs with no
lock held — the lock only covers the dictionary book-keeping.  When two
threads race to gather the same key, :meth:`store` keeps the *widest*
table, so concurrent stores can never narrow what the cache answers; the
backends are deterministic, so either racer's table serves identical bits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.flat import dirty_ancestor_positions
from repro.core.solver import GatherTable
from repro.core.tree import NodeId, TreeNetwork


class CacheKey(NamedTuple):
    """Identity of a gather computation (everything its output depends on)."""

    structure: str
    available: str
    loads: str
    exact_k: bool


class CachedSolution(NamedTuple):
    """A fully-traced placement memoized for one effective budget."""

    blue_nodes: frozenset[NodeId]
    cost: float
    predicted_cost: float


@dataclass
class CacheStats:
    """Counters exposed through the service's ``Stats`` endpoint."""

    table_hits: int = 0
    solution_hits: int = 0
    misses: int = 0
    budget_upcasts: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Availability misses for which :meth:`GatherTableCache.repair_candidate`
    #: found a repairable neighbour (counted at candidate time).
    repair_hits: int = 0
    #: Delta repairs actually completed and stored (``note_repair``).  A
    #: ``repair_hits`` > ``repairs`` gap means candidates were found but the
    #: repair itself fell back to a cold gather.
    repairs: int = 0

    @property
    def hits(self) -> int:
        """Requests answered without a gather (table or solution memo)."""
        return self.table_hits + self.solution_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict[str, float | int]:
        """Plain-dict view for stats responses and CSV rows."""
        return {
            "table_hits": self.table_hits,
            "solution_hits": self.solution_hits,
            "misses": self.misses,
            "budget_upcasts": self.budget_upcasts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "repair_hits": self.repair_hits,
            "repairs": self.repairs,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    """One cached gather: the table artifact and the solution memo.

    The entry's Λ (used by :meth:`GatherTableCache.invalidate_switches`)
    is the availability set of the table's own workload network.
    """

    table: GatherTable
    solutions: dict[int, CachedSolution] = field(default_factory=dict)

    @property
    def available(self) -> frozenset[NodeId]:
        return self.table.tree.available


#: Everything of a :class:`CacheKey` except the availability fingerprint —
#: two entries in the same family describe the same gather under different
#: Λ's, i.e. exactly the pairs delta repair can bridge.
_FamilyKey = tuple[str, str, bool]


def _family_of(key: CacheKey) -> _FamilyKey:
    return (key.structure, key.loads, key.exact_k)


def _live_mask(
    order: tuple[NodeId, ...], available: frozenset[NodeId], live: TreeNetwork | None
) -> np.ndarray:
    """Λ membership of ``available`` in flat ``order``.

    ``live``'s memoized mask when ``order`` is its layout's own order (the
    same object, so the same positions), else built node by node.
    """
    if live is not None and live.flat_layout().order is order:
        return live.availability_mask()
    return np.fromiter(map(available.__contains__, order), dtype=bool, count=len(order))


def _repair_worthwhile(table: GatherTable, delta: frozenset[NodeId]) -> bool:
    """Whether repairing ``table`` by ``delta`` recomputes at most half the switches.

    A repair re-convolves the delta switches and all their ancestors; past
    about 60% of the tree the compiled backend's repair costs more than a
    cold gather (see the module docstring).  The walk is remembered, so
    the repair of the same delta does not walk again.
    """
    tree = table.tree
    dirty = dirty_ancestor_positions(tree, table.result.flat.index, delta)
    return len(dirty) <= tree.num_switches // 2


class GatherTableCache:
    """LRU cache of gather tables with budget upcasting and a solution memo.

    Parameters
    ----------
    max_entries:
        Maximum number of gather results kept (each entry's solution memo
        rides along with it).  The oldest-used entry evicts first.
    max_repair_delta:
        Flip bound of :meth:`repair_candidate`.  ``None`` (the default)
        bounds nothing: the nearest same-family table is repaired whenever
        the repair recomputes at most half the switches.  An int also
        ignores candidates more than that many switch flips away, and ``0``
        disables repair (see the module docstring).
    """

    def __init__(
        self, max_entries: int = 64, max_repair_delta: int | None = None
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_repair_delta is not None and max_repair_delta < 0:
            raise ValueError(
                f"max_repair_delta must be non-negative, got {max_repair_delta}"
            )
        self._max_entries = int(max_entries)
        self._max_repair_delta = (
            None if max_repair_delta is None else int(max_repair_delta)
        )
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        # family -> keys, insertion-ordered: the candidate pool of
        # repair_candidate (every same-family entry differs from the target
        # in availability alone).
        self._families: dict[_FamilyKey, OrderedDict[CacheKey, None]] = {}
        self.stats = CacheStats()
        # One mutex over the LRU book-keeping and the stats counters.  The
        # cached GatherTable artifacts themselves are immutable, so the
        # service's concurrent read-only loop only needs this lock for the
        # (cheap) dict operations around a hit — the returned table is then
        # traced without any lock held.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def max_repair_delta(self) -> int | None:
        return self._max_repair_delta

    @property
    def repair_enabled(self) -> bool:
        """Whether the repair-instead-of-invalidate policy is active."""
        return self._max_repair_delta != 0

    # ------------------------------------------------------------------ #
    # index maintenance (callers hold self._lock)
    # ------------------------------------------------------------------ #

    def _index_entry(self, key: CacheKey) -> None:
        self._families.setdefault(_family_of(key), OrderedDict())[key] = None

    def _unindex_entry(self, key: CacheKey) -> None:
        family = _family_of(key)
        members = self._families.get(family)
        if members is not None:
            members.pop(key, None)
            if not members:
                del self._families[family]

    def _remove_entry(self, key: CacheKey) -> _Entry | None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._unindex_entry(key)
        return entry

    def keys(self) -> tuple[CacheKey, ...]:
        """Current keys, least-recently-used first (for tests/diagnostics)."""
        with self._lock:
            return tuple(self._entries)

    def tables(self) -> tuple[tuple[CacheKey, GatherTable], ...]:
        """Current ``(key, table)`` pairs, least-recently-used first.

        The snapshot path reads the hot workloads out of these artifacts
        (each table owns the workload network it was gathered for), so a
        restored service can pre-warm its cache by re-gathering them.
        """
        with self._lock:
            return tuple((key, entry.table) for key, entry in self._entries.items())

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def solution(self, key: CacheKey, budget: int) -> CachedSolution | None:
        """Memoized solution for ``(key, effective budget)``, if any.

        A hit counts as ``solution_hits`` and refreshes the entry's LRU
        position; a miss here is *not* counted (the caller falls through to
        :meth:`lookup`, which does the accounting).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            cached = entry.solutions.get(budget)
            if cached is None:
                return None
            self._entries.move_to_end(key)
            self.stats.solution_hits += 1
            return cached

    def lookup(self, key: CacheKey, budget: int) -> GatherTable | None:
        """Gather table able to answer ``key`` at effective ``budget``.

        Returns ``None`` (and counts a miss) when the key is absent or the
        stored table was built for a smaller budget — the budget-upcast
        case, counted separately so the stats tell the two apart.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.table.budget < budget:
                self.stats.misses += 1
                self.stats.budget_upcasts += 1
                return None
            self._entries.move_to_end(key)
            self.stats.table_hits += 1
            return entry.table

    def stored_budget(self, key: CacheKey) -> int | None:
        """Budget of the stored table (no LRU touch, no stats) or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry.table.budget

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #

    def store(self, key: CacheKey, table: GatherTable) -> None:
        """Insert (or replace, on budget upcast) the table for ``key``.

        Concurrent gatherers may race to store the same key; keep whichever
        table is *widest* so a store can never narrow what the cache
        already answers (the tables are bit-identical per budget column,
        so either winner serves the same answers).
        """
        with self._lock:
            previous = self._remove_entry(key)
            if previous is not None and previous.table.budget > table.budget:
                table = previous.table
            entry = _Entry(table=table)
            if previous is not None:
                # The wider table answers every budget the narrower one did,
                # so the memoized traces stay valid.
                entry.solutions.update(previous.solutions)
            self._entries[key] = entry
            self._index_entry(key)
            while len(self._entries) > self._max_entries:
                oldest = next(iter(self._entries))
                self._remove_entry(oldest)
                self.stats.evictions += 1

    def store_solution(
        self,
        key: CacheKey,
        budget: int,
        solution: CachedSolution,
    ) -> None:
        """Memoize a traced placement for ``(key, effective budget)``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.solutions[budget] = solution

    # ------------------------------------------------------------------ #
    # repair
    # ------------------------------------------------------------------ #

    def repair_candidate(
        self,
        key: CacheKey,
        budget: int,
        available: frozenset[NodeId],
        live: TreeNetwork | None = None,
    ) -> tuple[GatherTable, frozenset[NodeId]] | None:
        """The nearest cached table repairable to ``key``'s availability.

        Scans the entries of ``key``'s family (same structure, loads, and
        semantics — candidates differ from the live network in Λ alone)
        and returns ``(table, delta)`` for the one whose recorded Λ is the
        fewest switch flips from ``available``, or ``None`` when no
        candidate qualifies.  ``delta`` is the symmetric difference to
        feed :meth:`repro.core.solver.GatherTable.repair`.

        A table is a candidate only when the repair is sound: the delta is
        non-empty (and at most ``max_repair_delta`` flips when that bound
        is set), the stored table can answer the requested effective
        ``budget``, and the repaired table's effective budget would keep
        the stored tensor width (``min(requested_budget, |Λ|)`` unchanged
        — :func:`repro.core.engine.repair` enforces the same and would
        refuse otherwise).  Ties on delta size keep the earliest-stored
        candidate.  Flips are counted on each table's flat Λ mask against
        one mask of ``available`` per call; the frozenset delta is built
        for the winner alone.  ``live``, when given, is a network whose Λ
        is ``available`` (the service's fleet network at the live Λ): its
        memoized :meth:`~repro.core.tree.TreeNetwork.availability_mask` is
        that mask whenever the family's flat order is ``live``'s own
        layout order, and the mask is built from ``available`` otherwise.  The nearest candidate is returned
        only when the repair is also worthwhile: it recomputes at most
        half the switches (the delta switches and their ancestors,
        ``num_switches // 2`` at most; see the module docstring);
        otherwise the miss is left to a cold gather.  A returned candidate
        counts as a ``repair_hit`` and refreshes the source entry's LRU
        position (it is doing useful work).
        """
        if not self.repair_enabled:
            return None
        with self._lock:
            members = self._families.get(_family_of(key))
            if not members:
                return None
            bound = self._max_repair_delta
            best_key: CacheKey | None = None
            best_flips = 0
            mask: np.ndarray | None = None
            for other_key in members:
                if other_key == key:
                    # The same key missed (absent or too narrow); there is
                    # nothing a zero-delta repair could add.
                    continue
                table = self._entries[other_key].table
                if table.budget < budget:
                    continue
                if min(int(table.requested_budget), len(available)) != table.budget:
                    continue
                flat = table.result.flat
                if mask is None:
                    # Every family member shares the structure, so one
                    # live mask in its flat order serves the whole scan.
                    mask = _live_mask(flat.order, available, live)
                flips = int(np.count_nonzero(flat.avail != mask))
                if not flips:
                    continue
                if bound is not None and flips > bound:
                    continue
                if best_key is None or flips < best_flips:
                    best_key, best_flips = other_key, flips
            if best_key is None:
                return None
            best = self._entries[best_key]
            delta = best.available ^ available
            if not _repair_worthwhile(best.table, delta):
                return None
            self._entries.move_to_end(best_key)
            self.stats.repair_hits += 1
            return best.table, delta

    def note_repair(self) -> None:
        """Count one completed delta repair (the repaired table was stored)."""
        with self._lock:
            self.stats.repairs += 1

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #

    def invalidate_switches(self, switches: frozenset[NodeId] | set[NodeId]) -> int:
        """Drop entries whose Λ intersects ``switches``; return the count.

        Used after a drain when repair is disabled: Λ will never again
        contain a drained switch, so entries gathered under an availability
        set mentioning it can never be looked up again *verbatim*.  (Under
        the repair policy the service keeps them as repair sources instead
        — see the module docstring.)  Entries whose Λ already excluded the
        switches are untouched and stay live.  A scan of the at most
        ``max_entries`` live entries.
        """
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if not entry.available.isdisjoint(switches)
            ]
            for key in doomed:
                self._remove_entry(key)
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def invalidate_all(self) -> int:
        """Drop every entry (e.g. after a rate or topology change)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._families.clear()
            self.stats.invalidations += count
            return count
