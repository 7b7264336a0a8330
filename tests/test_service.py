"""Tests for the multi-tenant placement service (:mod:`repro.service`).

Three layers of defence:

* **differential** — every placement answer the service produces over
  seeded churn traces must be bit-identical to a direct cold
  :meth:`repro.Solver.solve` / :meth:`repro.Solver.sweep` at the
  availability the service saw (same blue set, same cost floats);
* **unit** — the gather-table cache's LRU/upcast/invalidation mechanics and
  the capacity tracker's new release/drain operations, checked in
  isolation;
* **acceptance** (slow tier) — on a seeded 200-request churn trace over
  BT(1024), warm requests are ≥ 10x faster than cold solves and every
  response verifies.
"""

from __future__ import annotations

import numpy as np
import pytest

from backend_params import BACKEND_PARAMS
from repro.core.engine import DEFAULT_BACKEND, NUMPY_BACKEND
from repro.core.flat import dirty_ancestor_positions
from repro.core.solver import Solver
from repro.core.tree import fingerprint_loads, fingerprint_nodes
from repro.exceptions import (
    AvailabilityError,
    CapacityError,
    InvalidBudgetError,
    WorkloadError,
)
from repro.online.capacity import CapacityTracker
from repro.service import (
    AdmitRequest,
    DrainRequest,
    GatherTableCache,
    PlacementService,
    ReleaseRequest,
    SolveRequest,
    StatsRequest,
    SweepRequest,
    TraceEvent,
    event_to_request,
    generate_churn_trace,
    read_trace,
    replay_trace,
    response_payload,
    write_trace,
)
from repro.service.cache import CachedSolution, CacheKey
from repro.service.persistence import read_snapshot, write_snapshot
from repro.testing import assert_tables_equal
from repro.topology.binary_tree import bt_network, complete_binary_tree
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads


def small_service(num_leaves: int = 8, capacity: int = 3, **kwargs) -> PlacementService:
    return PlacementService(complete_binary_tree(num_leaves), capacity, **kwargs)


def leaf_loads(tree, seed: int = 0) -> dict:
    return sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=seed)


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #


class TestFingerprints:
    def test_fingerprint_ignores_dict_order_and_zeros(self):
        assert fingerprint_loads({"a": 1, "b": 2}) == fingerprint_loads({"b": 2, "a": 1})
        assert fingerprint_loads({"a": 1, "b": 0}) == fingerprint_loads({"a": 1})
        assert fingerprint_loads({"a": 1}) != fingerprint_loads({"a": 2})

    def test_tree_fingerprints_decompose(self):
        tree = complete_binary_tree(4, leaf_loads=[1, 2, 3, 4])
        same = complete_binary_tree(4, leaf_loads=[1, 2, 3, 4])
        assert tree.fingerprint() == same.fingerprint()
        assert tree.structure_fingerprint() == same.structure_fingerprint()

        reloaded = tree.with_loads({"s2_0": 5})
        assert reloaded.structure_fingerprint() == tree.structure_fingerprint()
        assert reloaded.loads_fingerprint() != tree.loads_fingerprint()
        assert reloaded.fingerprint() != tree.fingerprint()

        restricted = tree.with_available(["s0_0"])
        assert restricted.availability_fingerprint() != tree.availability_fingerprint()
        assert restricted.structure_fingerprint() == tree.structure_fingerprint()

        rerated = tree.with_rates({"s1_0": 2.0})
        assert rerated.structure_fingerprint() != tree.structure_fingerprint()

    def test_loads_fingerprint_matches_request_digest(self):
        # The service digests request loads without building a tree; the
        # digest must agree with the tree's own loads fingerprint.
        tree = complete_binary_tree(4)
        loads = {"s2_0": 3, "s2_3": 1}
        assert tree.with_loads(loads).loads_fingerprint() == fingerprint_loads(loads)

    def test_recurring_workload_is_digested_once(self, monkeypatch):
        import repro.service.api as api_module

        calls = []

        def counting(loads):
            calls.append(dict(loads))
            return fingerprint_loads(loads)

        monkeypatch.setattr(api_module, "fingerprint_loads", counting)
        tree = complete_binary_tree(8)
        service = PlacementService(tree, 2)
        loads = {"s3_0": 3, "s3_5": 1}
        first = service.submit(SolveRequest(loads, 2))
        again = service.submit(SolveRequest(dict(loads), 2))
        assert len(calls) == 1
        assert again.cache_source == "memo"
        assert again.blue_nodes == first.blue_nodes
        service.submit(SolveRequest({"s3_0": 3, "s3_5": 2}, 2))
        assert len(calls) == 2

    def test_availability_fingerprint_matches_nodes_digest(self):
        tree = complete_binary_tree(4)
        assert tree.availability_fingerprint() == fingerprint_nodes(tree.switches)

    def test_with_available_patches_digest_by_delta(self):
        # Satellite: with_available resumes the memoized IncrementalDigest
        # and folds the delta in/out instead of recomputing over Λ.  The
        # patched digest must equal the from-scratch digest of the new Λ —
        # for removals, additions, mixed flips, and chains of them.
        tree = complete_binary_tree(8, leaf_loads=[1, 2, 3, 4, 5, 6, 7, 8])
        tree.fingerprint()  # memoize all digests so the patch path runs
        switches = sorted(tree.switches)
        current = tree
        rng = np.random.default_rng(8)
        for _ in range(12):
            flips = frozenset(
                switches[int(p)]
                for p in rng.choice(len(switches), size=int(rng.integers(1, 4)), replace=False)
            )
            current = current.with_available(current.available ^ flips)
            fresh = complete_binary_tree(8, leaf_loads=[1, 2, 3, 4, 5, 6, 7, 8]).with_loads(
                current.loads, available=current.available
            )
            assert current.availability_fingerprint() == fresh.availability_fingerprint()
            assert current.fingerprint() == fresh.fingerprint()
            assert current.availability_fingerprint() == fingerprint_nodes(
                current.available
            )

    def test_with_available_shares_structure(self):
        # with_available must not pay the O(n) constructor: the clone
        # shares every Λ-independent attribute and only swaps Λ.
        tree = complete_binary_tree(8)
        clone = tree.with_available(sorted(tree.available)[:5])
        assert clone.switches is tree.switches
        assert clone.loads == tree.loads
        assert clone.height == tree.height
        assert clone.available == frozenset(sorted(tree.available)[:5])
        with pytest.raises(AvailabilityError):
            tree.with_available(["not-a-switch"])


# --------------------------------------------------------------------------- #
# capacity tracker churn (release / drain)
# --------------------------------------------------------------------------- #


class TestCapacityRelease:
    def test_release_restores_capacity(self, small_tree):
        tracker = CapacityTracker(small_tree, 2)
        tracker.consume({"a", "r"})
        assert tracker.residual("a") == 1
        restored = tracker.release({"a", "r"})
        assert restored == {"a", "r"}
        assert tracker.residual("a") == 2 and tracker.residual("r") == 2

    def test_release_unknown_switch_raises(self, small_tree):
        tracker = CapacityTracker(small_tree, 2)
        with pytest.raises(CapacityError, match="unknown switches"):
            tracker.release({"nope"})

    def test_over_release_raises(self, small_tree):
        tracker = CapacityTracker(small_tree, 2)
        with pytest.raises(CapacityError, match="exceed initial capacity"):
            tracker.release({"a"})

    def test_drain_zeroes_and_pins_capacity(self, small_tree):
        tracker = CapacityTracker(small_tree, 2)
        tracker.consume({"a"})
        forfeited = tracker.drain("a")
        assert forfeited == 1
        assert tracker.residual("a") == 0
        assert "a" not in tracker.available()
        assert tracker.drained == {"a"}
        # Releasing a drained switch does not resurrect it.
        restored = tracker.release({"a"})
        assert restored == frozenset()
        assert tracker.residual("a") == 0
        # Consuming a drained switch fails like any exhausted switch.
        with pytest.raises(CapacityError, match="no residual"):
            tracker.consume({"a"})

    def test_drain_unknown_switch_raises(self, small_tree):
        tracker = CapacityTracker(small_tree, 2)
        with pytest.raises(CapacityError, match="not a switch"):
            tracker.drain("d")

    def test_utilization_excludes_drained_slots(self, small_tree):
        tracker = CapacityTracker(small_tree, 2)
        tracker.drain("a")
        # Forfeited slots are not "consumed": utilization stays zero.
        assert tracker.utilization_of_capacity() == 0.0
        tracker.consume({"r"})
        # 1 of the 4 remaining in-service slots (r and b, capacity 2 each).
        assert tracker.utilization_of_capacity() == 0.25

    def test_reset_forgets_drains(self, small_tree):
        tracker = CapacityTracker(small_tree, 1)
        tracker.drain("a")
        tracker.reset()
        assert tracker.drained == frozenset()
        assert "a" in tracker.available()


# --------------------------------------------------------------------------- #
# cache unit tests
# --------------------------------------------------------------------------- #


def _key(tag: str, exact_k: bool = False) -> CacheKey:
    return CacheKey(
        structure="s", available=f"a-{tag}", loads=f"l-{tag}", exact_k=exact_k
    )


#: The switches of the fake tables: every name the cache tests use.
_FAKE_SWITCHES = ("a", "b", "c", "d", "e", "s", "t") + tuple(
    f"sw{i}" for i in range(57)
)


class _FakeLayout:
    # Every switch hangs directly off the destination of a 64-switch tree,
    # so the cache's half-tree repair guard sees a delta dirty only itself.
    parent_of = (-1,) * len(_FAKE_SWITCHES)


class _FakeTree:
    num_switches = len(_FAKE_SWITCHES)

    def __init__(self, available: frozenset) -> None:
        self.available = available

    def flat_layout(self) -> _FakeLayout:
        return _FAKE_LAYOUT


_FAKE_LAYOUT = _FakeLayout()


class _FakeFlat:
    """The flat order, index and Λ mask the cache's candidate scan reads."""

    order = _FAKE_SWITCHES
    index = {name: position for position, name in enumerate(_FAKE_SWITCHES)}

    def __init__(self, available: frozenset) -> None:
        self.avail = np.array([name in available for name in self.order])


class _FakeResult:
    def __init__(self, available: frozenset) -> None:
        self.flat = _FakeFlat(available)


class _FakeTable:
    """Stand-in for a GatherTable: the cache only reads ``budget``,
    ``requested_budget``, the Λ of the table's own workload network, and
    (for the candidate scan and the repair guard) the result's flat Λ
    mask and index."""

    def __init__(
        self,
        budget: int,
        available: frozenset = frozenset(),
        requested_budget: int | None = None,
    ) -> None:
        self.budget = budget
        self.requested_budget = budget if requested_budget is None else requested_budget
        self.tree = _FakeTree(frozenset(available))
        self.result = _FakeResult(frozenset(available))


class TestGatherTableCache:
    def test_hit_miss_accounting(self):
        cache = GatherTableCache(max_entries=4)
        key = _key("x")
        assert cache.lookup(key, 2) is None
        cache.store(key, _FakeTable(4, frozenset({"a"})))
        assert cache.lookup(key, 2) is not None
        assert cache.stats.misses == 1 and cache.stats.table_hits == 1

    def test_budget_upcast_counted_and_replaced(self):
        cache = GatherTableCache(max_entries=4)
        key = _key("x")
        cache.store(key, _FakeTable(2))
        assert cache.lookup(key, 4) is None
        assert cache.stats.budget_upcasts == 1
        assert cache.stored_budget(key) == 2
        cache.store(key, _FakeTable(4))
        assert cache.stored_budget(key) == 4
        assert cache.lookup(key, 4).budget == 4
        # The wider table still answers narrower budgets.
        assert cache.lookup(key, 1).budget == 4

    def test_upcast_preserves_solution_memo(self):
        cache = GatherTableCache(max_entries=4)
        key = _key("x")
        cache.store(key, _FakeTable(2))
        memo = CachedSolution(frozenset({"b"}), 7.0, 7.0)
        cache.store_solution(key, 2, memo)
        cache.store(key, _FakeTable(8))
        assert cache.solution(key, 2) == memo
        assert cache.stats.solution_hits == 1

    def test_lru_eviction_order(self):
        cache = GatherTableCache(max_entries=2)
        first, second, third = _key("1"), _key("2"), _key("3")
        cache.store(first, _FakeTable(1))
        cache.store(second, _FakeTable(1))
        cache.lookup(first, 1)  # refresh "1": now "2" is the LRU victim
        cache.store(third, _FakeTable(1))
        assert first in cache and third in cache and second not in cache
        assert cache.stats.evictions == 1

    def test_invalidate_switches_is_selective(self):
        cache = GatherTableCache(max_entries=4)
        with_s = _key("with")
        without_s = _key("without")
        cache.store(with_s, _FakeTable(1, frozenset({"s", "t"})))
        cache.store(without_s, _FakeTable(1, frozenset({"t"})))
        dropped = cache.invalidate_switches({"s"})
        assert dropped == 1
        assert with_s not in cache and without_s in cache
        assert cache.stats.invalidations == 1

    def test_invalidate_all(self):
        cache = GatherTableCache(max_entries=4)
        cache.store(_key("1"), _FakeTable(1))
        cache.store(_key("2"), _FakeTable(1))
        assert cache.invalidate_all() == 2
        assert len(cache) == 0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            GatherTableCache(max_entries=0)

    def test_rejects_negative_repair_delta(self):
        with pytest.raises(ValueError):
            GatherTableCache(max_entries=4, max_repair_delta=-1)


def _avail_key(tag: str) -> CacheKey:
    """Keys of one repair family: they differ in availability alone."""
    return CacheKey(
        structure="s", available=f"a-{tag}", loads="l", exact_k=False
    )


def _holding(cache: GatherTableCache, switch: str) -> set:
    """Live keys whose table's Λ holds ``switch`` (read through the public API)."""
    return {key for key, table in cache.tables() if switch in table.tree.available}


class TestInvalidateSwitches:
    """``invalidate_switches`` drops exactly the live entries whose Λ holds
    the switch — after stores, replacements, LRU evictions, and earlier
    invalidations alike."""

    def _assert_exact(self, cache: GatherTableCache, switch: str) -> None:
        before = set(cache.keys())
        doomed = _holding(cache, switch)
        assert cache.invalidate_switches({switch}) == len(doomed)
        assert set(cache.keys()) == before - doomed

    def test_tracks_store_and_replace(self):
        cache = GatherTableCache(max_entries=4)
        key = _avail_key("x")
        cache.store(key, _FakeTable(2, frozenset({"a", "b"})))
        # A replacement with a different Λ: the old Λ must not count.
        cache.store(key, _FakeTable(4, frozenset({"b", "c"})))
        assert cache.invalidate_switches({"a"}) == 0
        assert key in cache
        self._assert_exact(cache, "c")
        assert key not in cache

    def test_tracks_eviction(self):
        cache = GatherTableCache(max_entries=2)
        first, second, third = _avail_key("1"), _avail_key("2"), _avail_key("3")
        cache.store(first, _FakeTable(1, frozenset({"s1", "s"})))
        cache.store(second, _FakeTable(1, frozenset({"s2", "s"})))
        cache.store(third, _FakeTable(1, frozenset({"s3", "s"})))  # evicts "1"
        assert cache.invalidate_switches({"s1"}) == 0
        self._assert_exact(cache, "s")
        assert len(cache) == 0

    def test_tracks_invalidation(self):
        cache = GatherTableCache(max_entries=4)
        with_s = _avail_key("with")
        without_s = _avail_key("without")
        cache.store(with_s, _FakeTable(1, frozenset({"s", "t"})))
        cache.store(without_s, _FakeTable(1, frozenset({"t"})))
        assert cache.invalidate_switches({"s"}) == 1
        assert cache.keys() == (without_s,)
        # The dropped entry is gone for good: a second drain of "s" finds
        # nothing, and "t" now holds only the survivor.
        assert cache.invalidate_switches({"s"}) == 0
        self._assert_exact(cache, "t")
        assert cache.stats.invalidations == 2

    def test_matches_live_entries_under_random_churn(self):
        rng = np.random.default_rng(42)
        cache = GatherTableCache(max_entries=3)
        switches = [f"sw{i}" for i in range(6)]
        for step in range(120):
            op = int(rng.integers(3))
            if op == 0:
                tag = str(int(rng.integers(8)))
                chosen = frozenset(
                    s for s in switches if rng.random() < 0.5
                )
                cache.store(_avail_key(tag), _FakeTable(1, chosen))
            elif op == 1:
                self._assert_exact(cache, switches[int(rng.integers(len(switches)))])
            else:
                cache.lookup(_avail_key(str(int(rng.integers(8)))), 1)


class TestRepairCandidate:
    """The nearest-neighbor scan behind repair-instead-of-invalidate."""

    def test_disabled_cache_never_offers_candidates(self):
        cache = GatherTableCache(max_entries=4, max_repair_delta=0)
        assert not cache.repair_enabled
        cache.store(_avail_key("a"), _FakeTable(2, frozenset({"s"})))
        assert cache.repair_candidate(_avail_key("b"), 2, frozenset({"s", "t"})) is None
        assert cache.stats.repair_hits == 0

    def test_smallest_delta_wins(self):
        cache = GatherTableCache(max_entries=4)
        near_key, far_key = _avail_key("near"), _avail_key("far")
        near = _FakeTable(3, frozenset({"a", "b"}), requested_budget=3)
        far = _FakeTable(3, frozenset({"a", "b", "c", "d", "e"}), requested_budget=3)
        cache.store(far_key, far)
        cache.store(near_key, near)
        candidate = cache.repair_candidate(
            _avail_key("target"), 3, frozenset({"a", "b", "c"})
        )
        assert candidate is not None
        table, delta = candidate
        assert table is near and delta == frozenset({"c"})
        assert cache.stats.repair_hits == 1

    def test_tie_keeps_earliest_stored(self):
        cache = GatherTableCache(max_entries=4)
        first = _FakeTable(2, frozenset({"a"}))
        second = _FakeTable(2, frozenset({"b"}))
        cache.store(_avail_key("first"), first)
        cache.store(_avail_key("second"), second)
        candidate = cache.repair_candidate(_avail_key("t"), 2, frozenset({"a", "b"}))
        assert candidate is not None and candidate[0] is first

    def test_zero_delta_and_same_key_skipped(self):
        cache = GatherTableCache(max_entries=4)
        key = _avail_key("same")
        cache.store(key, _FakeTable(2, frozenset({"a"})))
        # The key itself is skipped, and another entry at the identical Λ
        # would be a zero-flip repair (i.e. not a repair at all).
        assert cache.repair_candidate(key, 2, frozenset({"a"})) is None

    def test_delta_above_cap_rejected(self):
        cache = GatherTableCache(max_entries=4, max_repair_delta=1)
        cache.store(_avail_key("far"), _FakeTable(2, frozenset({"a", "b", "c"})))
        # Budget-sound (min(2, |{d, e}|) == 2) but five flips away.
        assert cache.repair_candidate(_avail_key("t"), 2, frozenset({"d", "e"})) is None
        assert cache.stats.repair_hits == 0

    def test_narrow_table_rejected(self):
        cache = GatherTableCache(max_entries=4)
        cache.store(_avail_key("narrow"), _FakeTable(1, frozenset({"a", "b"})))
        assert cache.repair_candidate(_avail_key("t"), 2, frozenset({"a"})) is None

    def test_effective_budget_shift_rejected(self):
        cache = GatherTableCache(max_entries=4)
        # Stored at effective budget 4 = min(requested 4, |Λ| = 4); at the
        # target Λ of 3 switches the effective budget would narrow to 3,
        # so the tensor width no longer matches and repair must refuse.
        cache.store(
            _avail_key("wide"),
            _FakeTable(4, frozenset({"a", "b", "c", "d"}), requested_budget=4),
        )
        assert (
            cache.repair_candidate(_avail_key("t"), 3, frozenset({"a", "b", "c"}))
            is None
        )

    def test_other_family_not_scanned(self):
        cache = GatherTableCache(max_entries=4)
        cache.store(_key("other-loads"), _FakeTable(2, frozenset({"a"})))
        assert cache.repair_candidate(_avail_key("t"), 2, frozenset({"a", "b"})) is None

    @pytest.mark.parametrize("max_repair_delta", [None, 2, 5])
    def test_mask_scan_selects_like_the_frozenset_scan(self, max_repair_delta):
        """The flat-mask scan picks exactly what the frozenset scan picked:
        fewest flips, ties to the earliest stored, the same bound, width
        and half-tree checks — on random families of real tables."""
        rng = np.random.default_rng(8675309 + (max_repair_delta or 0))
        tree = bt_network(8)
        tree = tree.with_loads(sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=4))
        switches = sorted(tree.switches)
        solver = Solver()

        def random_available():
            chosen = frozenset(s for s in switches if rng.random() < 0.6)
            return chosen or frozenset(switches[:1])

        def key_for(available):
            return CacheKey("s", fingerprint_nodes(available), "l", False)

        def frozenset_choice(cache, key, budget, available):
            best = None
            for other_key, table in cache.tables():
                if other_key == key or table.budget < budget:
                    continue
                if min(int(table.requested_budget), len(available)) != table.budget:
                    continue
                delta = table.tree.available ^ available
                if not delta:
                    continue
                if max_repair_delta is not None and len(delta) > max_repair_delta:
                    continue
                if best is None or len(delta) < len(best[1]):
                    best = (table, delta)
            if best is None:
                return None
            dirty = dirty_ancestor_positions(best[0].tree, best[0].result.flat.index, best[1])
            return best if len(dirty) <= tree.num_switches // 2 else None

        offered = 0
        for _ in range(100):
            cache = GatherTableCache(max_entries=16, max_repair_delta=max_repair_delta)
            for _member in range(int(rng.integers(1, 9))):
                available = random_available()
                cache.store(
                    key_for(available),
                    solver.gather(tree.with_available(available), int(rng.integers(1, 5))),
                )
            available = random_available()
            budget = int(rng.integers(1, 5))
            expected = frozenset_choice(cache, key_for(available), budget, available)
            got = cache.repair_candidate(key_for(available), budget, available)
            if expected is None:
                assert got is None
                continue
            offered += 1
            assert got is not None
            assert got[0] is expected[0] and got[1] == expected[1]
        assert offered >= 15

    def test_note_repair_counts(self):
        cache = GatherTableCache(max_entries=4)
        cache.note_repair()
        cache.note_repair()
        assert cache.stats.repairs == 2
        assert cache.stats.snapshot()["repairs"] == 2


# --------------------------------------------------------------------------- #
# service behaviour
# --------------------------------------------------------------------------- #


class TestPlacementService:
    def test_warm_solve_is_bit_identical_to_cold(self):
        service = small_service()
        tree = service.state.tree
        loads = leaf_loads(tree)
        cold = service.submit(SolveRequest(loads=loads, budget=3))
        warm = service.submit(SolveRequest(loads=loads, budget=3))
        assert not cold.cache_hit and warm.cache_hit
        reference = Solver().solve(tree.with_loads(loads), 3)
        for response in (cold, warm):
            assert response.cost == reference.cost
            assert response.predicted_cost == reference.predicted_cost
            assert response.blue_nodes == reference.blue_nodes

    def test_budget_upcasting_answers_smaller_budgets(self):
        service = small_service()
        loads = leaf_loads(service.state.tree)
        service.submit(SolveRequest(loads=loads, budget=5))
        small = service.submit(SolveRequest(loads=loads, budget=2))
        assert small.cache_hit
        reference = Solver().solve(service.state.tree.with_loads(loads), 2)
        assert small.cost == reference.cost and small.blue_nodes == reference.blue_nodes

    def test_sweep_matches_budget_sweep(self):
        service = small_service()
        tree = service.state.tree
        loads = leaf_loads(tree)
        response = service.submit(SweepRequest(loads=loads, budgets=(1, 2, 4)))
        reference = Solver().sweep(tree.with_loads(loads), (1, 2, 4))
        for budget, solution in reference.items():
            assert response.costs[budget] == solution.cost
            assert response.placements[budget] == solution.blue_nodes

    def test_admit_consumes_capacity_and_release_restores(self):
        service = small_service(capacity=1)
        loads = leaf_loads(service.state.tree)
        admitted = service.submit(AdmitRequest(tenant_id="t", loads=loads, budget=2))
        assert service.state.num_tenants == 1
        assert admitted.blue_nodes <= frozenset(service.state.tree.switches)
        for switch in admitted.blue_nodes:
            assert service.state.tracker.residual(switch) == 0
        released = service.submit(ReleaseRequest(tenant_id="t"))
        assert released.restored == admitted.blue_nodes
        assert service.state.num_tenants == 0
        assert service.available() == frozenset(service.state.tree.switches)

    def test_duplicate_tenant_rejected(self):
        service = small_service()
        loads = leaf_loads(service.state.tree)
        service.submit(AdmitRequest(tenant_id="t", loads=loads, budget=1))
        with pytest.raises(WorkloadError, match="already active"):
            service.submit(AdmitRequest(tenant_id="t", loads=loads, budget=1))

    def test_release_unknown_tenant_rejected(self):
        with pytest.raises(WorkloadError, match="no active tenant"):
            small_service().submit(ReleaseRequest(tenant_id="ghost"))

    def test_saturated_switch_leaves_availability(self):
        service = small_service(capacity=1)
        loads = leaf_loads(service.state.tree)
        admitted = service.submit(AdmitRequest(tenant_id="t", loads=loads, budget=2))
        assert admitted.blue_nodes
        available = service.available()
        assert not (admitted.blue_nodes & available)
        # The next solve must avoid the saturated switches entirely.
        follow_up = service.submit(SolveRequest(loads=loads, budget=2))
        assert not (follow_up.blue_nodes & admitted.blue_nodes)
        reference = Solver().solve(
            service.state.tree.with_loads(loads).with_available(available), 2
        )
        assert follow_up.cost == reference.cost
        assert follow_up.blue_nodes == reference.blue_nodes

    def test_drain_displaces_and_replaces_tenants(self):
        service = small_service(capacity=2)
        tree = service.state.tree
        loads = leaf_loads(tree)
        admitted = service.submit(AdmitRequest(tenant_id="t", loads=loads, budget=3))
        victim = sorted(admitted.blue_nodes, key=repr)[0]
        response = service.submit(DrainRequest(switch=victim))
        assert [item.tenant_id for item in response.displaced] == ["t"]
        replacement = response.displaced[0]
        assert victim in replacement.old_blue_nodes
        assert victim not in replacement.new_blue_nodes
        # The tenant is re-registered with its new placement, which cannot
        # beat the pre-drain optimum (Λ only shrank).
        record = service.state.tenant("t")
        assert record.blue_nodes == replacement.new_blue_nodes
        assert victim not in record.blue_nodes
        assert replacement.new_cost >= admitted.cost
        # Displacement is not a new admission: the lifetime counters keep
        # num_tenants == admitted_total - released_total.
        assert service.state.admitted_total == 1
        assert service.state.released_total == 0
        assert service.state.num_tenants == 1

    def test_drain_invalidates_only_affected_entries(self):
        # max_repair_delta=0 pins the legacy invalidate-on-drain policy;
        # under the default repair policy drains keep the affected entries
        # as repair sources (covered by TestCacheRepair below).
        service = small_service(num_leaves=8, capacity=4, max_repair_delta=0)
        tree = service.state.tree
        loads_a = leaf_loads(tree, seed=1)
        loads_b = leaf_loads(tree, seed=2)
        # Two full-availability entries (Λ contains the victim) and, after
        # draining another switch first, one entry whose Λ excludes it.
        service.submit(DrainRequest(switch="s3_7"))
        service.submit(SolveRequest(loads=loads_a, budget=2))
        service.submit(SolveRequest(loads=loads_b, budget=2))
        assert len(service.cache) == 2
        response = service.submit(DrainRequest(switch="s3_0"))
        # Both entries' Λ contained s3_0, so both are dead and dropped.
        assert response.invalidated_entries == 2
        assert len(service.cache) == 0
        # Entries whose Λ never contained the drained switch survive.
        service.submit(SolveRequest(loads=loads_a, budget=2))
        assert len(service.cache) == 1
        survivor = service.submit(DrainRequest(switch="s3_0"))
        # s3_0 was already drained: the cached entry's Λ excludes it, so
        # nothing is invalidated and the entry stays live.
        assert survivor.invalidated_entries == 0
        assert len(service.cache) == 1
        follow_up = service.submit(DrainRequest(switch="s3_1"))
        assert follow_up.invalidated_entries == 1  # Λ did contain s3_1

    def test_admit_on_saturated_fleet_raises_typed_error(self):
        # Drive the fleet to full saturation through ordinary admits, then
        # check the boundary: the next admit must fail with a typed
        # CapacityError instead of silently registering a tenant with an
        # empty placement (the pre-fix behaviour: Λ = {} clamped the
        # effective budget to 0 and the "admission" held zero switches).
        service = small_service(num_leaves=4, capacity=1)
        tree = service.state.tree
        # Strictly >1 load per leaf: aggregation then always pays at every
        # switch, so each admit consumes capacity and saturation is
        # reachable in at most |switches| admissions.
        loads = {leaf: 3 for leaf in tree.leaves()}
        count = 0
        for _ in range(2 * len(tree.switches)):
            if not service.available():
                break
            service.submit(
                AdmitRequest(tenant_id=f"t{count}", loads=loads, budget=len(tree.switches))
            )
            count += 1
        assert not service.available(), "trace failed to saturate the fleet"
        assert count > 0
        with pytest.raises(CapacityError, match="no aggregation capacity"):
            service.submit(AdmitRequest(tenant_id="overflow", loads=loads, budget=2))
        # The failed admit mutated nothing: counters and registry agree.
        assert "overflow" not in service.state.tenants()
        assert service.state.num_tenants == count
        assert service.state.admitted_total == count
        assert service.state.released_total == 0

    def test_drain_records_failed_replacement_instead_of_raising(self):
        # A tenant holding exactly the drained switch, with every other
        # switch drained: re-placement is infeasible (Λ empties), which
        # before the fix unwound _handle_drain mid-loop and corrupted the
        # registry.  Now the drain completes, reports the failure, and
        # keeps num_tenants == admitted_total - released_total.
        service = small_service(num_leaves=4, capacity=1)
        tree = service.state.tree
        victim = sorted(tree.switches, key=repr)[0]
        admitted = service.submit(
            AdmitRequest(tenant_id="t", loads={victim: 2}, budget=1)
        )
        assert admitted.blue_nodes == {victim}
        for switch in tree.switches:
            if switch != victim:
                service.submit(DrainRequest(switch=switch))
        response = service.submit(DrainRequest(switch=victim))
        assert response.displaced == ()
        assert [failure.tenant_id for failure in response.failed] == ["t"]
        assert "CapacityError" in response.failed[0].error
        assert response.failed[0].old_blue_nodes == {victim}
        state = service.state
        assert state.num_tenants == 0
        assert state.num_tenants == state.admitted_total - state.released_total
        assert state.released_total == 1

    def test_drain_partial_failure_keeps_earlier_replacements(self):
        # Two tenants displaced by one drain; the first re-placement
        # consumes the last capacity, so the second fails.  The response
        # must carry both outcomes and the registry must stay consistent.
        service = small_service(num_leaves=2, capacity=2)
        tree = service.state.tree
        switches = sorted(tree.switches, key=repr)
        root = tree.root
        # Both tenants hold only the root (budget 1 forces one switch).
        first = service.submit(AdmitRequest(tenant_id="a", loads={root: 3}, budget=1))
        second = service.submit(AdmitRequest(tenant_id="b", loads={root: 3}, budget=1))
        assert first.blue_nodes == second.blue_nodes == {root}
        # Leave exactly one slot of capacity elsewhere: drain nothing else,
        # but shrink the pool by saturating the non-root switches with
        # drains until a single re-placement can succeed.
        others = [switch for switch in switches if switch != root]
        for switch in others[1:]:
            service.submit(DrainRequest(switch=switch))
        survivor = others[0]
        # Saturate the surviving switch with two fillers (load 3 makes the
        # blue at the loaded switch strictly beneficial, so each filler
        # really consumes one of its two capacity slots).
        for name in ("filler", "filler2"):
            admitted = service.submit(
                AdmitRequest(tenant_id=name, loads={survivor: 3}, budget=1)
            )
            assert admitted.blue_nodes == {survivor}
        response = service.submit(DrainRequest(switch=root))
        # Both displaced; no capacity anywhere (survivor saturated by the
        # fillers, everything else drained): every displaced tenant is
        # accounted exactly once and the lifetime counters balance.
        outcomes = {item.tenant_id for item in response.displaced} | {
            failure.tenant_id for failure in response.failed
        }
        assert outcomes == {"a", "b"}
        state = service.state
        assert state.num_tenants == state.admitted_total - state.released_total
        assert len(response.failed) == 2  # survivor is saturated: both fail
        assert state.num_tenants == 2  # the fillers still stand

    def test_drain_mixed_outcome_keeps_successful_replacement(self):
        # The success-then-failure interleaving: two tenants displaced by
        # one drain, the first re-placement consumes the last capacity,
        # the second finds Λ empty.  The survivor's registration must
        # stand, the failure must be reported, and the counters balance.
        tree = complete_binary_tree(2)
        leaf = sorted(tree.leaves(), key=repr)[0]
        other_leaf = sorted(tree.leaves(), key=repr)[1]
        root = tree.root
        service = PlacementService(tree, capacity={leaf: 2, other_leaf: 0, root: 1})
        for name in ("a", "b"):
            admitted = service.submit(
                AdmitRequest(tenant_id=name, loads={leaf: 3}, budget=2)
            )
            assert admitted.blue_nodes == {leaf}
        response = service.submit(DrainRequest(switch=leaf))
        # Tenant "a" (arrival order) re-places onto the root — the loaded
        # leaf's messages pass through it, so the blue is beneficial and
        # consumes the root's single slot; "b" then finds Λ empty.
        assert [item.tenant_id for item in response.displaced] == ["a"]
        assert response.displaced[0].new_blue_nodes == {root}
        assert [failure.tenant_id for failure in response.failed] == ["b"]
        state = service.state
        assert sorted(state.tenants()) == ["a"]
        assert state.tenant("a").blue_nodes == {root}
        assert state.num_tenants == 1
        assert state.admitted_total == 2 and state.released_total == 1
        assert state.num_tenants == state.admitted_total - state.released_total

    def test_churn_trace_draining_to_infeasibility_replays_cleanly(self):
        # The trace-level pin of both fixes: a hand-written churn trace
        # that admits, saturates, and drains the fleet to infeasibility
        # must replay end-to-end (no mid-loop unwinding), with failures
        # reported on the drain response and counters consistent.
        tree = complete_binary_tree(4)
        switches = sorted(tree.switches, key=repr)
        root_name = str(tree.root)
        events = [
            TraceEvent(kind="admit", tenant="t0", budget=1, loads=((root_name, 2),)),
        ]
        events.extend(
            TraceEvent(kind="drain", switch=name)
            for name in map(str, switches)
            if name != root_name
        )
        events.append(TraceEvent(kind="drain", switch=root_name))
        events.append(TraceEvent(kind="stats"))
        report = replay_trace(tree, events, capacity=1)
        assert report.num_requests == len(events)
        drain_responses = [
            record.response
            for record in report.records
            if record.event.kind == "drain"
        ]
        assert [failure.tenant_id for failure in drain_responses[-1].failed] == ["t0"]
        stats = report.records[-1].response
        assert stats.fleet["active_tenants"] == 0
        assert stats.fleet["admitted_total"] - stats.fleet["released_total"] == 0

    def test_cache_stats_accounting_under_upcast_and_invalidation(self):
        # The full counter story across one scripted request sequence:
        # cold miss, memo hit, upcast (miss + budget_upcast), table hit,
        # then a drain that invalidates exactly the entries whose Λ held
        # the switch.  Repair is disabled so the drain actually invalidates
        # (the default policy keeps entries as repair sources instead).
        service = small_service(num_leaves=8, capacity=4, max_repair_delta=0)
        tree = service.state.tree
        loads = leaf_loads(tree)
        service.submit(SolveRequest(loads=loads, budget=2))  # cold gather
        service.submit(SolveRequest(loads=loads, budget=2))  # memo hit
        service.submit(SolveRequest(loads=loads, budget=4))  # upcast re-gather
        service.submit(SolveRequest(loads=loads, budget=3))  # table hit
        stats = service.cache.stats
        assert stats.misses == 2
        assert stats.budget_upcasts == 1
        assert stats.solution_hits == 1
        assert stats.table_hits == 1
        assert stats.hits == 2
        assert stats.lookups == 4
        assert stats.hit_rate == 0.5
        before = len(service.cache)
        assert before == 1
        response = service.submit(DrainRequest(switch=sorted(tree.switches, key=repr)[0]))
        assert response.invalidated_entries == 1
        assert stats.invalidations == 1
        assert len(service.cache) == 0
        # The upcast preserved the memo: a repeat of the small budget after
        # re-gathering hits the memo layer again, not the gather.
        service.submit(SolveRequest(loads=loads, budget=2))  # cold (new Λ)
        service.submit(SolveRequest(loads=loads, budget=2))  # memo hit
        assert stats.misses == 3 and stats.solution_hits == 2

    def test_stats_snapshot(self):
        service = small_service()
        loads = leaf_loads(service.state.tree)
        service.submit(SolveRequest(loads=loads, budget=2))
        service.submit(SolveRequest(loads=loads, budget=2))
        stats = service.submit(StatsRequest())
        assert stats.fleet["active_tenants"] == 0
        assert stats.cache["solution_hits"] == 1
        assert stats.requests == {"SolveRequest": 2, "StatsRequest": 1}

    def test_invalid_budget_rejected(self):
        service = small_service()
        loads = leaf_loads(service.state.tree)
        with pytest.raises(InvalidBudgetError):
            service.submit(SolveRequest(loads=loads, budget=-1))
        with pytest.raises(InvalidBudgetError):
            service.submit(SolveRequest(loads=loads, budget=1.5))
        # Sweeps apply the same validation per budget (no silent int()).
        with pytest.raises(InvalidBudgetError):
            service.submit(SweepRequest(loads=loads, budgets=(1, 2.5)))
        with pytest.raises(InvalidBudgetError):
            service.submit(SweepRequest(loads=loads, budgets=(-1,)))

    def test_invalid_loads_rejected(self):
        service = small_service()
        with pytest.raises(WorkloadError):
            service.submit(SolveRequest(loads={"s2_0": -3}, budget=1))

    def test_unknown_engine_rejected(self):
        # The kernels are a Backend object now: the old name knobs fail loudly.
        with pytest.raises(TypeError):
            small_service(engine="flat")
        with pytest.raises(TypeError):
            small_service(cost_kernel="flat")


# --------------------------------------------------------------------------- #
# repair-instead-of-invalidate (the PR 9 tentpole at the service layer)
# --------------------------------------------------------------------------- #


class TestCacheRepair:
    """Drains keep cache entries as repair sources under the default policy.

    The next solve at the drained Λ is answered by delta-repairing the
    nearest cached table instead of a cold re-gather — bit-identically to
    the legacy invalidate-on-drain policy, which stays available via
    ``max_repair_delta=0``.
    """

    def _churn(self, **kwargs):
        """Solve, drain, solve, drain, solve; return the solve responses."""
        service = small_service(num_leaves=8, capacity=4, **kwargs)
        loads = leaf_loads(service.state.tree, seed=1)
        responses = [service.submit(SolveRequest(loads=loads, budget=2))]
        drains = [service.submit(DrainRequest(switch="s3_0"))]
        responses.append(service.submit(SolveRequest(loads=loads, budget=2)))
        drains.append(service.submit(DrainRequest(switch="s3_1")))
        responses.append(service.submit(SolveRequest(loads=loads, budget=2)))
        return service, responses, drains

    def test_drain_keeps_entries_and_solves_repair(self):
        service, responses, drains = self._churn()
        # Under the repair policy drains invalidate nothing: the affected
        # entries are one availability flip from being useful again.
        assert [drain.invalidated_entries for drain in drains] == [0, 0]
        assert [response.cache_source for response in responses] == [
            "gather",
            "repair",
            "repair",
        ]
        # A repair is cheaper than a gather but it is not a cache hit.
        assert not any(response.cache_hit for response in responses)
        stats = service.cache.stats
        assert stats.repair_hits == 2 and stats.repairs == 2
        assert stats.snapshot()["repair_hits"] == 2

    def test_repaired_answers_match_legacy_invalidate_policy(self):
        _, repaired, _ = self._churn()
        legacy_service, legacy, legacy_drains = self._churn(max_repair_delta=0)
        # The legacy policy really does invalidate on drain...
        assert any(drain.invalidated_entries > 0 for drain in legacy_drains)
        assert legacy_service.cache.stats.repairs == 0
        assert [response.cache_source for response in legacy] == ["gather"] * 3
        # ... and both policies serve bit-identical answers.
        for fast, slow in zip(repaired, legacy):
            assert fast.blue_nodes == slow.blue_nodes
            assert fast.cost == slow.cost

    def test_repaired_answers_match_direct_solver(self):
        service, responses, _ = self._churn()
        loads = leaf_loads(service.state.tree, seed=1)
        workload = service.state.tree.with_loads(
            loads, available=service.available()
        )
        direct = Solver().solve(workload, 2)
        assert responses[-1].blue_nodes == direct.blue_nodes
        assert responses[-1].cost == direct.cost

    def test_delta_cap_falls_back_to_cold_gather(self):
        service = small_service(num_leaves=8, capacity=4, max_repair_delta=1)
        loads = leaf_loads(service.state.tree, seed=1)
        service.submit(SolveRequest(loads=loads, budget=2))
        service.submit(DrainRequest(switch="s3_0"))
        service.submit(DrainRequest(switch="s3_1"))
        # Two flips from the only cached entry but the cap is one: the
        # solve must fall back to a cold gather, not stretch the repair.
        response = service.submit(SolveRequest(loads=loads, budget=2))
        assert response.cache_source == "gather"
        assert service.cache.stats.repair_hits == 0
        assert service.cache.stats.repairs == 0

    def test_repair_policy_knob_validated(self):
        with pytest.raises(ValueError):
            small_service(max_repair_delta=-2)

    def test_default_policy_has_no_flip_bound(self):
        assert small_service().cache.max_repair_delta is None
        assert small_service().cache.repair_enabled

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_far_neighbour_repaired_bit_identically(self, backend):
        # Ten drained leaves of one subtree of BT(64): the only cached
        # table is ten flips away (beyond the old cap of eight) yet its
        # repair recomputes 23 of 127 switches, so the default policy
        # repairs instead of gathering.
        service = small_service(num_leaves=64, capacity=4, backend=backend)
        loads = leaf_loads(service.state.tree, seed=3)
        service.submit(SolveRequest(loads=loads, budget=4))
        for leaf in range(10):
            service.submit(DrainRequest(switch=f"s6_{leaf}"))
        response = service.submit(SolveRequest(loads=loads, budget=4))
        assert response.cache_source == "repair"
        stats = service.cache.stats
        assert stats.repair_hits == stats.repairs == 1

        workload = service.state.tree.with_loads(loads, available=service.available())
        cold = Solver(backend=backend).gather(workload, 4)
        key, repaired = service.cache.tables()[-1]
        assert repaired.repaired_from is not None
        assert repaired.tree.available == workload.available
        assert_tables_equal(cold.result, repaired.result)
        direct = cold.place(4)
        assert response.blue_nodes == direct.blue_nodes
        assert response.cost == direct.cost

    def test_more_than_half_the_tree_dirty_gathers(self):
        # One drained leaf per quarter of BT(8): four flips (inside the old
        # cap of eight) whose root paths cover 11 of 15 switches — more than
        # half, so the repair would cost a gather and the miss gathers.
        service = small_service(num_leaves=8, capacity=4)
        loads = leaf_loads(service.state.tree, seed=1)
        service.submit(SolveRequest(loads=loads, budget=2))
        for switch in ("s3_0", "s3_2", "s3_4", "s3_6"):
            service.submit(DrainRequest(switch=switch))
        response = service.submit(SolveRequest(loads=loads, budget=2))
        assert response.cache_source == "gather"
        assert service.cache.stats.repair_hits == 0
        assert service.cache.stats.repairs == 0
        workload = service.state.tree.with_loads(loads, available=service.available())
        direct = Solver().solve(workload, 2)
        assert response.blue_nodes == direct.blue_nodes
        assert response.cost == direct.cost

    def test_repaired_sweep_reports_repair(self):
        service = small_service(num_leaves=8, capacity=4)
        loads = leaf_loads(service.state.tree, seed=1)
        first = service.submit(SweepRequest(loads=loads, budgets=(1, 2, 3)))
        assert first.cache_source == "gather"
        service.submit(DrainRequest(switch="s3_0"))
        # The widest budget is repaired; the narrower ones then trace the
        # repaired table ("table"), and the sweep reports the deeper layer.
        repaired = service.submit(SweepRequest(loads=loads, budgets=(1, 2, 3)))
        assert repaired.cache_source == "repair"
        assert service.cache.stats.repairs == 1
        again = service.submit(SweepRequest(loads=loads, budgets=(1, 2, 3)))
        assert again.cache_source == "memo"


# --------------------------------------------------------------------------- #
# trace round-trip
# --------------------------------------------------------------------------- #


class TestTraces:
    def test_jsonl_roundtrip(self, tmp_path):
        tree = complete_binary_tree(8)
        trace = generate_churn_trace(tree, 40, seed=5, budget=3)
        path = write_trace(trace, tmp_path / "trace.jsonl")
        assert read_trace(path) == trace

    def test_trace_header_identifies_network(self, tmp_path):
        from repro.service import check_trace_compatible, trace_header

        tree = complete_binary_tree(8)
        trace = generate_churn_trace(tree, 20, seed=5, budget=3)
        path = write_trace(trace, tmp_path / "trace.jsonl", tree=tree)
        # The header is metadata: reading skips it, the events round-trip.
        assert read_trace(path) == trace
        header = trace_header(path)
        assert header["structure"] == tree.structure_fingerprint()
        check_trace_compatible(tree, header)  # same network: fine
        # BT names nest across sizes, so without the header this mismatch
        # would replay silently; with it, it must be refused.
        bigger = complete_binary_tree(16)
        with pytest.raises(WorkloadError, match="different network"):
            check_trace_compatible(bigger, header)
        # Headerless traces (hand-written) stay accepted.
        bare = write_trace(trace, tmp_path / "bare.jsonl")
        assert trace_header(bare) is None
        check_trace_compatible(bigger, trace_header(bare))

    def test_event_resolution_rejects_unknown_switch(self):
        tree = complete_binary_tree(4)
        event = TraceEvent(kind="solve", budget=1, loads=(("nope", 2),))
        with pytest.raises(WorkloadError, match="unknown switch"):
            event_to_request(tree, event)

    def test_generate_trace_is_deterministic(self):
        tree = complete_binary_tree(8)
        assert generate_churn_trace(tree, 30, seed=9) == generate_churn_trace(
            tree, 30, seed=9
        )
        assert generate_churn_trace(tree, 30, seed=9) != generate_churn_trace(
            tree, 30, seed=10
        )

    def test_generated_trace_releases_only_active_tenants(self):
        tree = complete_binary_tree(8)
        trace = generate_churn_trace(tree, 120, seed=11)
        active: set[str] = set()
        for event in trace:
            if event.kind == "admit":
                assert event.tenant not in active
                active.add(event.tenant)
            elif event.kind == "release":
                assert event.tenant in active
                active.remove(event.tenant)


class TestPercentile:
    """Nearest-rank percentile of the replay report (issue 6 regression).

    The old implementation indexed at ``round(fraction * (n - 1))`` —
    Python's banker's rounding, so p50 of a 2-sample rounded *down* to the
    min while p50 of a 4-sample rounded *up*: inconsistent ranks exactly
    in the small per-kind samples ``kind_rows`` produces.  The ceil-based
    nearest-rank definition is monotone in n.
    """

    def test_empty_sample_is_zero(self):
        from repro.service.driver import _percentile

        assert _percentile([], 0.50) == 0.0

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([7.0], 7.0),
            ([1.0, 2.0], 1.0),
            ([1.0, 2.0, 3.0], 2.0),
            ([1.0, 2.0, 3.0, 4.0], 2.0),  # round(1.5) rounded *up* to 3.0 here
            ([1.0, 2.0, 3.0, 4.0, 5.0], 3.0),
        ],
    )
    def test_median_nearest_rank(self, values, expected):
        from repro.service.driver import _percentile

        assert _percentile(values, 0.50) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 19])
    def test_p95_of_small_samples_is_the_max(self, n):
        # ceil(0.95 n) == n for every n < 20: p95 of a small sample is its
        # maximum, never an interior element.
        from repro.service.driver import _percentile

        values = [float(i) for i in range(1, n + 1)]
        assert _percentile(values, 0.95) == float(n)

    def test_p100_and_p0_clamp_to_the_ends(self):
        from repro.service.driver import _percentile

        values = [1.0, 2.0, 3.0]
        assert _percentile(values, 1.0) == 3.0
        assert _percentile(values, 0.0) == 1.0


# --------------------------------------------------------------------------- #
# differential churn replays
# --------------------------------------------------------------------------- #


class TestDifferentialReplay:
    """Service answers == cold solver answers, across seeded churn traces."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_churn_trace_bit_identical(self, seed):
        tree = complete_binary_tree(16)
        trace = generate_churn_trace(tree, 80, seed=seed, budget=4, workload_pool=4)
        report = replay_trace(tree, trace, capacity=3, verify=True)
        assert report.num_requests == 80
        placement_requests = sum(
            1 for event in trace if event.kind in ("solve", "sweep", "admit")
        )
        assert report.verified == placement_requests

    def test_replay_with_both_engines_agree(self):
        tree = complete_binary_tree(8)
        trace = generate_churn_trace(tree, 50, seed=3, budget=3)
        numpy_service = PlacementService(tree, 3, backend=NUMPY_BACKEND)
        numpy_replay = replay_trace(tree, trace, service=numpy_service, verify=True)
        default = replay_trace(tree, trace, capacity=3, verify=True)
        assert numpy_replay.backend == "numpy"
        assert default.backend == DEFAULT_BACKEND.name
        for left, right in zip(numpy_replay.records, default.records):
            if hasattr(left.response, "cost"):
                assert left.response.cost == right.response.cost
                assert left.response.blue_nodes == right.response.blue_nodes

    def test_replay_hits_cache_on_recurring_pool(self):
        tree = complete_binary_tree(16)
        trace = generate_churn_trace(tree, 100, seed=4, budget=4, workload_pool=3)
        report = replay_trace(tree, trace, capacity=4, verify=True)
        assert report.hit_rate > 0.3

    def test_repairs_report_apart_from_cold_gathers(self):
        # Repairs are the main miss path under churn; the cold mean (what a
        # cache-less service would pay) must count gathers alone.
        tree = complete_binary_tree(16)
        trace = generate_churn_trace(tree, 120, seed=4, budget=4, workload_pool=3)
        report = replay_trace(tree, trace, capacity=4)
        latencies: dict[str, list[float]] = {}
        for record in report.records:
            if record.event.kind in ("solve", "sweep", "admit"):
                source = record.response.cache_source
                latencies.setdefault(source, []).append(record.elapsed_s)
        assert latencies["repair"] and latencies["gather"]
        assert report.cold_mean_s == pytest.approx(np.mean(latencies["gather"]))
        assert report.repair_mean_s == pytest.approx(np.mean(latencies["repair"]))
        assert report.summary_row()["repair_mean_ms"] == 1e3 * report.repair_mean_s

    def test_replay_into_existing_service_keeps_state(self):
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=3)
        trace = generate_churn_trace(tree, 30, seed=6, budget=3)
        replay_trace(tree, trace, service=service, verify=True)
        admits = sum(1 for event in trace if event.kind == "admit")
        releases = sum(1 for event in trace if event.kind == "release")
        assert service.state.admitted_total >= admits
        assert service.state.num_tenants == service.state.admitted_total - releases


class TestTraceKernelDefaults:
    """The default backend serves exactly what the numpy backend does.

    A sweep resolves every budget through the cache first and then traces
    the table-answered ones in one batched call; the payloads and every
    cache counter must match a service on the numpy backend.
    """

    def _trace(self, tree):
        # Sweep budgets past |Λ| clamp to one effective budget, so sweeps
        # also exercise the repeated-budget memo path.
        return generate_churn_trace(
            tree, 160, seed=16, budget=6, workload_pool=4,
            sweep_budgets=(1, 2, 4, 6, 9, 40, 80), max_drains=3,
        )

    def _run(self, service, events, tree):
        return [
            response_payload(service.submit(event_to_request(tree, event)))
            for event in events
        ]

    def test_payloads_and_cache_counters_match_numpy_kernels(self):
        tree = complete_binary_tree(32)
        trace = self._trace(tree)
        assert {"sweep", "solve", "admit", "drain"} <= {e.kind for e in trace}
        numpy_service = PlacementService(tree, 2, backend=NUMPY_BACKEND)
        default_service = PlacementService(tree, 2)
        assert numpy_service.backend is NUMPY_BACKEND
        assert default_service.backend is DEFAULT_BACKEND
        assert self._run(numpy_service, trace, tree) == self._run(
            default_service, trace, tree
        )
        assert numpy_service.cache.stats.snapshot() == (
            default_service.cache.stats.snapshot()
        )
        assert default_service.cache.stats.solution_hits > 0

    def test_sweep_resolves_each_budget_as_one_at_a_time(self):
        # Widest first (a gather), then ascending: table hits for 1 and 2,
        # and 50 repeats the clamped 60, so it reads the memo 60 stored.
        service = small_service(num_leaves=8, capacity=2)
        tree = service.state.tree
        response = service.submit(SweepRequest(leaf_loads(tree), budgets=(2, 60, 1, 50)))
        assert response.cache_source == "gather" and not response.cache_hit
        stats = service.cache.stats
        assert (stats.misses, stats.table_hits, stats.solution_hits) == (1, 2, 1)
        assert response.costs[50] == response.costs[60]

    def test_numpy_kernel_snapshot_restores_with_its_names(self, tmp_path):
        # A snapshot in the format written before the backend knob, which
        # named the numpy kernels, restores and replays identically; new
        # snapshots no longer name any kernel.
        tree = complete_binary_tree(32)
        trace = self._trace(tree)
        head, tail = trace[:80], trace[80:]
        service = PlacementService(tree, 2, backend=NUMPY_BACKEND)
        self._run(service, head, tree)
        snapshot = service.snapshot()
        assert not {"engine", "color", "cost_kernel"} & set(snapshot)
        parent_format = {**snapshot, "engine": "flat", "color": "batched", "cost_kernel": "flat"}
        path = write_snapshot(parent_format, tmp_path / "snap.json")
        restored = PlacementService.restore(tree, read_snapshot(path))
        assert restored.backend is DEFAULT_BACKEND
        assert self._run(restored, tail, tree) == self._run(service, tail, tree)


@pytest.mark.slow
class TestServiceAcceptance:
    """The acceptance bars: BT(1024) churn with ≥ 10x warm speedup and full
    bit-identity, plus the ≥ 3x colour-only (table-hit) improvement of the
    artifact warm path over the legacy warm path."""

    def test_bt1024_churn_trace_warm_speedup_and_bit_identity(self):
        tree = bt_network(1024)
        trace = generate_churn_trace(tree, 200, seed=2021, budget=16, workload_pool=8)
        report = replay_trace(tree, trace, capacity=4, verify=True)
        placement_requests = sum(
            1 for event in trace if event.kind in ("solve", "sweep", "admit")
        )
        assert report.verified == placement_requests
        assert report.hit_rate > 0.2
        assert report.warm_speedup >= 10.0, (
            f"warm requests only {report.warm_speedup:.1f}x faster than cold"
        )
        # The summary row now reports the per-layer warm split.
        summary = report.summary_row()
        assert "table_hit_mean_ms" in summary and "memo_hit_mean_ms" in summary

    def test_bt1024_table_hit_beats_legacy_warm_path_3x(self):
        # The warm hit, three generations deep: GatherTable.place (the
        # backend's trace + cost kernel) versus the PR 3 path (the same
        # trace + per-node cost recompute) versus what PR 2's warm path did
        # for the same hit (rebuild the workload network, per-node reference
        # trace, per-node cost).  Same bits out of all three; ≥ 2x over PR 3
        # and ≥ 3x over legacy, with the backend's cost kernel itself ahead
        # of the per-node walk.
        from benchmarks.bench_service import warm_path_rows

        rows = warm_path_rows(1024)
        assert rows[0]["warm_path_speedup"] >= 3.0, (
            f"table-hit path only {rows[0]['warm_path_speedup']:.2f}x faster "
            "than the legacy warm path"
        )
        assert rows[0]["warm_speedup_vs_pr3"] >= 2.0, (
            f"table-hit path only {rows[0]['warm_speedup_vs_pr3']:.2f}x faster "
            "than the PR 3 warm path"
        )
        assert rows[0]["cost_kernel_speedup"] > 1.0

    def test_long_churn_differential_sweep(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            tree = complete_binary_tree(32)
            trace = generate_churn_trace(
                tree, 150, seed=int(rng.integers(1 << 30)), budget=6, workload_pool=5
            )
            report = replay_trace(tree, trace, capacity=2, verify=True)
            assert report.verified > 0
