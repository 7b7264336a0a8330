"""Differential suite for the cost kernels and the incremental digests.

Two subsystems under test, both introduced for the service's warm path:

* **Cost kernels** — the flat kernel and every backend's batched
  ``costs`` must return the *bit-identical* Eq. (1) value (same float,
  not approximately equal) as the per-node
  :func:`~repro.core.cost.utilization_cost` walk, on the full seeded
  generator space: random shapes/loads/Λ, the adversarial near-tie rate
  and load profiles, and straddling availability patterns.  The barrier
  re-formulation of Lemma 4.2 cross-checks the values a third way.

* **Incremental digests** — the Λ fingerprint the capacity tracker
  maintains across admit/release/drain churn, and the per-tenant loads
  digests carried on :class:`~repro.service.state.TenantRecord`, must
  always equal the full recomputes (:func:`fingerprint_nodes` /
  :func:`fingerprint_loads`) they replace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost import (
    evaluate_cost,
    per_link_utilization,
    per_link_utilization_flat,
    utilization_cost,
    utilization_cost_barrier,
    utilization_cost_flat,
    utilization_costs_compiled,
    utilization_costs_flat,
)
from repro.core.engine import BACKENDS, COMPILED_BACKEND, NUMPY_BACKEND
from repro.core.flat import cost_model_for
from repro.core.solver import Solver
from repro.core.tree import (
    IncrementalDigest,
    Loads,
    fingerprint_loads,
    fingerprint_nodes,
)
from repro.exceptions import PlacementError
from repro.online.capacity import CapacityTracker
from repro.service import PlacementService
from repro.service.events import event_to_request, generate_churn_trace
from repro.testing import costs_close, instance_stream, near_tie_stream
from repro.topology.binary_tree import bt_network, complete_binary_tree
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads


def _candidate_placements(tree, budget, rng):
    """A few feasible blue sets per instance: optimal, empty, random ⊆ Λ."""
    yield Solver().solve(tree, budget).blue_nodes
    yield frozenset()
    available = sorted(tree.available, key=repr)
    if available:
        count = int(rng.integers(0, len(available) + 1))
        picks = rng.choice(len(available), size=count, replace=False)
        yield frozenset(available[int(i)] for i in picks)


def _kernel_costs(tree, blue, model):
    """Eq. (1) of ``blue`` by the flat kernel and by every backend's ``costs``."""
    mask = np.zeros((1, len(model.order)), dtype=np.uint8)
    mask[0, [model.index[node] for node in blue]] = 1
    values = {
        "flat": utilization_cost_flat(tree, blue),
        "flat+model": utilization_cost_flat(tree, blue, model=model),
    }
    for backend in BACKENDS:
        values[backend.name] = float(backend.costs(tree, mask, model)[0])
    return values


class TestCostKernelDifferential:
    """Every cost kernel == utilization_cost, bit for bit."""

    def test_registry_shape(self):
        # The single-placement name and each backend's batched kernel.
        assert evaluate_cost is utilization_cost_flat
        assert NUMPY_BACKEND.costs is utilization_costs_flat
        if COMPILED_BACKEND is not None:
            assert COMPILED_BACKEND.costs is utilization_costs_compiled

    def test_random_instances_all_kernels(self):
        rng = np.random.default_rng(0xC057)
        for tree, budget in instance_stream(seed=20260730, count=150, max_switches=12):
            model = cost_model_for(tree)
            for blue in _candidate_placements(tree, budget, rng):
                expected = utilization_cost(tree, blue)
                for name, value in _kernel_costs(tree, blue, model).items():
                    assert value == expected, name
                # Lemma 4.2 cross-check (tolerance-based: arbitrary rates).
                assert costs_close(expected, utilization_cost_barrier(tree, blue))

    def test_near_tie_and_straddling_instances(self):
        # Symmetric rates/loads and straddled Λ: the exact values are
        # decided by summation order alone, so any reduction reorder in
        # the flat kernel shows up here first.
        for tree, budget in near_tie_stream(0xBEEF, 100, max_switches=11):
            blue = Solver().solve(tree, budget).blue_nodes
            expected = utilization_cost(tree, blue)
            assert utilization_cost_flat(tree, blue) == expected
            assert evaluate_cost(tree, blue) == expected
            assert costs_close(expected, utilization_cost_barrier(tree, blue))

    def test_per_link_breakdown_identical(self):
        rng = np.random.default_rng(7)
        for tree, budget in instance_stream(seed=99, count=60, max_switches=12):
            model = cost_model_for(tree)
            for blue in _candidate_placements(tree, budget, rng):
                reference = per_link_utilization(tree, blue)
                flat = per_link_utilization_flat(tree, blue, model=model)
                assert flat == reference
                # Same insertion (post-order) key order, not just same items.
                assert list(flat) == list(reference)

    def test_loads_override_matches_reference(self):
        tree = bt_network(64)
        model = cost_model_for(tree)
        rng = np.random.default_rng(3)
        for seed in range(5):
            loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=seed)
            workload = tree.with_loads(loads)
            blue = Solver().solve(workload, 6).blue_nodes
            expected = utilization_cost(workload, blue, loads=loads)
            # Explicit loads mapping against the shared structural model...
            assert utilization_cost_flat(workload, blue, loads=loads, model=model) == expected
            # ...and the foreign-tree path re-deriving loads from the tree.
            assert utilization_cost_flat(workload, blue, model=model) == expected
            # Partial mappings behave like the reference's .get(s, 0).
            partial = {node: value for node, value in loads.items() if rng.random() < 0.5}
            assert utilization_cost_flat(tree, blue, loads=partial, model=model) == (
                utilization_cost(tree, blue, loads=partial)
            )

    def test_validation_parity(self, paper_tree):
        restricted = paper_tree.with_available({"s1_0"})
        with pytest.raises(PlacementError):
            utilization_cost_flat(restricted, {"s1_1"})
        # validate=False skips the Λ check in both kernels identically.
        assert utilization_cost_flat(restricted, {"s1_1"}, validate=False) == (
            utilization_cost(restricted, {"s1_1"}, validate=False)
        )

    def test_unknown_kernel_rejected(self, paper_tree):
        # Cost kernels are no longer picked by name: the old knobs fail
        # loudly instead of being ignored.
        with pytest.raises(TypeError):
            evaluate_cost(paper_tree, frozenset(), cost="flat")
        with pytest.raises(TypeError):
            Solver(cost_kernel="flat")

    def test_placement_cost_matches_reference_kernel(self):
        # Every backend's Placement carries the reference walk's float.
        for tree, budget in instance_stream(seed=555, count=30, max_switches=12):
            for backend in BACKENDS:
                placement = Solver(backend=backend).solve(tree, budget)
                assert placement.cost == utilization_cost(tree, placement.blue_nodes)

    def test_gather_table_caches_one_model_per_result(self, loaded_bt16):
        for backend in BACKENDS:
            table = Solver(backend=backend).gather(loaded_bt16, 4)
            first = table.cost_model()
            table.sweep(range(5))
            assert table.cost_model() is first


class TestIncrementalDigest:
    """The additive multiset digest equals the full recompute under churn."""

    def test_add_remove_roundtrip(self):
        # fingerprint_nodes digests the *reprs* of the node ids, so the
        # incremental twin must add/remove the same canonical strings.
        digest = IncrementalDigest()
        empty = digest.hexdigest()
        digest.add(repr("a"))
        digest.add(repr("b"))
        assert digest.hexdigest() == fingerprint_nodes(["b", "a"])
        digest.remove(repr("b"))
        assert digest.hexdigest() == fingerprint_nodes(["a"])
        digest.remove(repr("a"))
        assert digest.hexdigest() == empty

    def test_order_independence_and_zero_skip(self, paper_tree):
        def digest(loads):
            return fingerprint_loads(Loads.of(paper_tree, loads))

        assert digest({"s2_0": 1, "s2_1": 2}) == digest({"s2_1": 2, "s2_0": 1})
        assert digest({"s2_0": 1, "s2_1": 0}) == digest({"s2_0": 1})
        assert digest({"s2_0": 1}) != digest({"s2_0": 2})

    def test_tracker_digest_tracks_full_recompute(self, paper_tree):
        tracker = CapacityTracker(paper_tree, 2)

        def check():
            assert tracker.availability_fingerprint() == fingerprint_nodes(
                tracker.available()
            )

        check()
        tracker.consume({"s1_0", "s2_0"})
        check()
        tracker.consume({"s1_0"})  # exhausts s1_0
        check()
        tracker.release({"s1_0", "s2_0"})
        check()
        tracker.drain("s2_1")
        check()
        tracker.release({"s1_0"})
        check()
        tracker.reset()
        check()

    def test_tracker_available_is_cached_object(self, paper_tree):
        tracker = CapacityTracker(paper_tree, 2)
        first = tracker.available()
        assert tracker.available() is first
        tracker.consume({"s1_0"})  # residual 2 -> 1: Λ unchanged
        assert tracker.available() is first
        tracker.consume({"s1_0"})  # residual 1 -> 0: Λ shrinks
        assert tracker.available() is not first

    def test_incremental_vs_full_across_churn_trace(self):
        # The satellite acceptance: replay a seeded admit/release/drain
        # churn trace through the service and, after every event, compare
        # the incrementally-maintained digests against full recomputes.
        tree = complete_binary_tree(16)
        service = PlacementService(tree, capacity=3)
        trace = generate_churn_trace(tree, 120, seed=42, budget=4, workload_pool=4)
        mutations = 0
        for event in trace:
            service.submit(event_to_request(tree, event))
            assert service.state.availability_fingerprint() == fingerprint_nodes(
                service.state.available()
            )
            for record in service.state.tenants().values():
                assert record.loads_fp == fingerprint_loads(record.loads)
            if event.kind in ("admit", "release", "drain"):
                mutations += 1
        assert mutations > 10  # the trace actually churned

    def test_service_availability_fingerprint_keys_cache_correctly(self):
        # Same Λ reached twice -> same digest -> old entries live again.
        tree = complete_binary_tree(8)
        service = PlacementService(tree, capacity=1)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=1)
        before = service.state.availability_fingerprint()
        service.submit(event_to_request(tree, generate_churn_trace(tree, 1, seed=0)[0]))
        from repro.service import AdmitRequest, ReleaseRequest, SolveRequest

        service.submit(AdmitRequest(tenant_id="t", loads=loads, budget=2))
        assert service.state.availability_fingerprint() != before
        service.submit(ReleaseRequest(tenant_id="t"))
        assert service.state.availability_fingerprint() == before
        cold = service.submit(SolveRequest(loads=loads, budget=2))
        warm = service.submit(SolveRequest(loads=loads, budget=2))
        assert warm.cache_hit and warm.cost == cold.cost


@pytest.mark.slow
class TestCostKernelSweep:
    """Wider randomized sweep (slow tier): every kernel, every budget."""

    def test_exhaustive_budget_sweep_all_kernels(self):
        rng = np.random.default_rng(11)
        for tree, budget in instance_stream(seed=314159, count=120, max_switches=14):
            table = Solver().gather(tree, budget)
            model = cost_model_for(tree)
            for k in range(table.budget + 1):
                placement = table.place(k)
                expected = utilization_cost(tree, placement.blue_nodes)
                assert placement.cost == expected
                for name, value in _kernel_costs(tree, placement.blue_nodes, model).items():
                    assert value == expected, name

    def test_near_tie_load_profiles_with_models(self):
        for tree, budget in near_tie_stream(
            0xD15EA5E, 150, equalize_loads_probability=1.0, max_switches=12
        ):
            model = cost_model_for(tree)
            blue = Solver().solve(tree, budget).blue_nodes
            assert utilization_cost_flat(tree, blue, model=model) == utilization_cost(
                tree, blue
            )
