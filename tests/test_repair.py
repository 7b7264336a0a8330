"""Differential verification of incremental gather-table repair (PR 9).

A repaired table must be *bit-identical* to a cold gather at the new
availability — tables, argmin breadcrumbs, traced placements, costs — on
both backends (numpy and compiled), for chains of
repair-of-repair, and for every budget semantics.  Where repair is
unsound (structure or load changes, a shifted effective budget, results
without flat tensors) it must refuse with
:class:`~repro.exceptions.RepairError` so callers fall back to a cold
gather instead of serving a wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from pathlib import Path

from backend_params import BACKEND_PARAMS, needs_compiled
from repro.core import engine_compiled
from repro.core.color import soar_color, soar_color_batched
from repro.core.engine import (
    BACKENDS,
    COMPILED_BACKEND,
    NUMPY_BACKEND,
    gather,
    repair,
)
from repro.core.flat import LazyNodeTables, dirty_ancestor_positions
from repro.core.gather import soar_gather
from repro.core.solver import Solver
from repro.exceptions import AvailabilityError, RepairError
from repro.testing import (
    assert_tables_equal,
    instance_stream,
    near_tie_stream,
)
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads


def _random_delta(rng, tree, max_flips=3):
    """A random non-empty availability delta over the tree's switches."""
    switches = list(tree.switches)
    flips = int(rng.integers(1, min(max_flips, len(switches)) + 1))
    picks = rng.choice(len(switches), size=flips, replace=False)
    return frozenset(switches[int(p)] for p in picks)


def _assert_repair_matches_cold(backend, result, new_tree):
    """Repair ``result`` towards ``new_tree`` and compare to a cold gather."""
    repaired = repair(result, new_tree, backend)
    cold = gather(new_tree, result.requested_budget, result.exact_k, backend)
    assert_tables_equal(cold, repaired)
    assert soar_color(new_tree, repaired) == soar_color(new_tree, cold)
    assert soar_color_batched(new_tree, repaired) == soar_color_batched(new_tree, cold)
    for budget in range(result.budget + 1):
        assert repaired.cost_for_budget(budget) == cold.cost_for_budget(budget)
    return repaired


class TestRepairBitIdentity:
    """Repair equals cold gather on seeded instance streams, both legs."""

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    @pytest.mark.parametrize("exact_k", [False, True])
    def test_instance_stream(self, backend, exact_k):
        rng = np.random.default_rng(90210 + int(exact_k))
        repaired_count = 0
        for tree, budget in instance_stream(
            seed=4590 + int(exact_k), count=30, max_switches=12
        ):
            result = gather(tree, budget, exact_k, backend)
            delta = _random_delta(rng, tree)
            new_tree = tree.with_available(tree.available ^ delta)
            try:
                _assert_repair_matches_cold(backend, result, new_tree)
            except RepairError:
                # Legitimate refusal: the delta moved |Λ| across the
                # requested budget, so the tensor width changed.
                assert min(budget, len(new_tree.available)) != result.budget
                continue
            repaired_count += 1
        assert repaired_count >= 15  # the stream must mostly exercise repair

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_near_tie_stream(self, backend):
        # Symmetric rates and loads make every argmin a tie-break — where
        # a repair replaying the convolution in a different order would
        # diverge first.
        rng = np.random.default_rng(777)
        repaired_count = 0
        for tree, budget in near_tie_stream(seed=9182, count=20, max_switches=12):
            result = gather(tree, budget, backend=backend)
            delta = _random_delta(rng, tree)
            new_tree = tree.with_available(tree.available ^ delta)
            try:
                _assert_repair_matches_cold(backend, result, new_tree)
            except RepairError:
                assert min(budget, len(new_tree.available)) != result.budget
                continue
            repaired_count += 1
        assert repaired_count >= 10

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_chained_repairs_track_cold_gathers(self, backend):
        """Satellite: 50+ chained repair-of-repair steps stay bit-identical.

        The table is only ever repaired (never re-gathered), so any drift
        — a stale breadcrumb, a missed ancestor, an un-repaired don't-care
        cell that later becomes load-bearing — compounds and surfaces as a
        mismatch against the per-step cold gather.
        """
        rng = np.random.default_rng(1123)
        tree = bt_network(32)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=7)
        workload = tree.with_loads(loads)
        budget = 4
        floor = budget + 4  # keep |Λ| clear of the budget so repair stays sound

        solver = Solver(backend=backend)
        table = solver.gather(workload, budget)
        assert table.repair_generation == 0 and table.repaired_from is None

        current = workload
        generation = 0
        for _ in range(60):
            delta = _random_delta(rng, current)
            available = current.available ^ delta
            if len(available) < floor:
                delta = frozenset(delta - current.available)  # adds only
                if not delta:
                    continue
                available = current.available | delta
            previous_fingerprint = table.fingerprint
            table = table.repair(delta)
            current = table.tree
            generation += 1
            assert current.available == available
            assert table.repair_generation == generation
            assert table.repaired_from == previous_fingerprint
            cold = solver.gather(tree.with_loads(loads, available=available), budget)
            assert_tables_equal(cold.result, table.result)
            assert cold.place(budget).blue_nodes == table.place(budget).blue_nodes
            assert cold.place(budget).cost == table.place(budget).cost
        assert table.repair_generation >= 50

    def test_numpy_fallback_leg_bit_identical(self):
        """Under REPRO_NO_COMPILED=1 (a fresh interpreter) the default
        backend is the numpy one and repairs bit-identically."""
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_NO_COMPILED="1")
        script = (
            "import numpy as np\n"
            "from repro.core.engine_compiled import HAVE_COMPILED\n"
            "from repro.core.engine import BACKENDS, DEFAULT_BACKEND, NUMPY_BACKEND, gather, repair\n"
            "from repro.testing import assert_tables_equal, instance_stream\n"
            "assert not HAVE_COMPILED\n"
            "assert BACKENDS == (NUMPY_BACKEND,) and DEFAULT_BACKEND is NUMPY_BACKEND\n"
            "rng = np.random.default_rng(5)\n"
            "checked = 0\n"
            "for tree, budget in instance_stream(seed=31, count=10, max_switches=10):\n"
            "    switches = list(tree.switches)\n"
            "    pick = switches[int(rng.integers(len(switches)))]\n"
            "    new_tree = tree.with_available(tree.available ^ {pick})\n"
            "    result = gather(tree, budget)\n"
            "    try:\n"
            "        repaired = repair(result, new_tree)\n"
            "    except Exception:\n"
            "        continue\n"
            "    cold = gather(new_tree, budget)\n"
            "    assert_tables_equal(cold, repaired)\n"
            "    checked += 1\n"
            "assert checked >= 5\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env=env,
            cwd=Path(__file__).resolve().parents[1],
        )


TENSORS = ("y_blue", "y_red", "splits_blue", "splits_red")


def _defined_cells(flat, name):
    """The bytes of the cells a gather defines in one flat tensor.

    Breadcrumb tensors are zero-initialized, so every cell counts.  A
    ``y`` tensor is defined on every row of a leaf column (the leaf
    broadcast writes them all) and on rows ``0 .. depth`` of an internal
    one; the rows above are never written nor read.
    """
    tensor = getattr(flat, name)
    if name.startswith("splits"):
        return tensor.tobytes()
    rows = np.arange(tensor.shape[0])[:, None]
    defined = flat.leaf[None, :] | (rows <= flat.depth[None, :])
    return tensor.transpose(0, 2, 1)[defined].tobytes()


def _assert_chain_kernels_match_cold(result, new_tree):
    """Repair with every backend's ``repair_chain`` kernel and byte-compare
    them with each other and with a cold gather."""
    repaired = [repair(result, new_tree, backend).flat for backend in BACKENDS]
    cold = gather(new_tree, result.requested_budget, exact_k=result.exact_k).flat
    for name in TENSORS:
        # Every kernel starts from the same clone: even the undefined rows
        # must agree, or one of them wrote a cell another did not.
        assert len({getattr(flat, name).tobytes() for flat in repaired}) == 1
        assert _defined_cells(repaired[-1], name) == _defined_cells(cold, name)
    return repaired[-1]


def _dirtying_exactly(tree, index, target):
    """A delta whose dirty ancestor chains hold exactly ``target`` switches.

    Switches are added in flat order while the dirty count stays within
    ``target``; a switch whose parent is already dirty adds exactly one,
    so the count always lands on the target.
    """
    delta: set = set()
    for switch in sorted(index, key=index.get):
        grown = len(dirty_ancestor_positions(tree, index, delta | {switch}))
        if grown <= target:
            delta.add(switch)
        if grown == target:
            break
    return frozenset(delta)


class TestRepairChainKernels:
    """The compiled and numpy ``repair_chain`` kernels against a cold
    gather, tensor byte for tensor byte, on streams and edge deltas."""

    @pytest.mark.parametrize("exact_k", [False, True])
    @pytest.mark.parametrize("stream", [instance_stream, near_tie_stream])
    def test_streams(self, stream, exact_k):
        rng = np.random.default_rng(6021 + int(exact_k))
        repaired_count = 0
        for tree, budget in stream(seed=3303 + int(exact_k), count=30, max_switches=16):
            result = gather(tree, budget, exact_k=exact_k)
            delta = _random_delta(rng, tree, max_flips=4)
            new_tree = tree.with_available(tree.available ^ delta)
            try:
                _assert_chain_kernels_match_cold(result, new_tree)
            except RepairError:
                assert min(budget, len(new_tree.available)) != result.budget
                continue
            repaired_count += 1
        assert repaired_count >= 15

    @pytest.fixture()
    def workload(self):
        tree = bt_network(64)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=17)
        available = frozenset(sorted(tree.switches)[::3]) | {tree.root}
        return tree.with_loads(loads, available=available)

    @staticmethod
    def _subtree_leaves(tree, node):
        return frozenset(s for s in tree.subtree(node) if not tree.children(s))

    def _edge_deltas(self, tree, index):
        inner = tree.children(tree.children(tree.root)[0])[1]
        return {
            "root": frozenset({tree.root}),
            "subtree-leaves": self._subtree_leaves(tree, inner),
            "half-tree": _dirtying_exactly(tree, index, tree.num_switches // 2),
        }

    @pytest.mark.parametrize("exact_k", [False, True])
    @pytest.mark.parametrize("edge", ["root", "subtree-leaves", "half-tree"])
    def test_edge_deltas(self, workload, edge, exact_k):
        result = gather(workload, 6, exact_k=exact_k)
        delta = self._edge_deltas(workload, result.flat.index)[edge]
        if edge == "half-tree":
            dirty = dirty_ancestor_positions(workload, result.flat.index, delta)
            assert dirty.size == workload.num_switches // 2
        _assert_chain_kernels_match_cold(result, workload.with_available(workload.available ^ delta))

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_lost_blue_eligibility_zeroes_stale_breadcrumbs(self, workload, exact_k):
        result = gather(workload, 6, exact_k=exact_k)
        flat = result.flat
        node = workload.root  # available, two children: one breadcrumb slot
        position = flat.index[node]
        slot = int(flat.stage_offset[position])
        rows = int(flat.depth[position]) + 1
        assert flat.splits_blue[:rows, :, slot].any()
        repaired = _assert_chain_kernels_match_cold(
            result, workload.with_available(workload.available - {node})
        )
        assert not repaired.splits_blue[:rows, :, slot].any()
        assert flat.splits_blue[:rows, :, slot].any()  # the source is untouched

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_budget_one(self, workload, exact_k):
        result = gather(workload, 1, exact_k=exact_k)
        assert result.budget == 1
        rng = np.random.default_rng(41)
        for _ in range(5):
            delta = _random_delta(rng, workload, max_flips=6)
            _assert_chain_kernels_match_cold(
                result, workload.with_available(workload.available ^ delta)
            )

    @needs_compiled
    def test_compiled_kernel_is_the_c_one(self):
        assert COMPILED_BACKEND.repair_chain is engine_compiled.repair_chain
        assert COMPILED_BACKEND.repair_chain is not NUMPY_BACKEND.repair_chain


class TestRepairRefusals:
    """Unsound repairs must raise RepairError, never return wrong tables."""

    @pytest.fixture()
    def workload(self):
        tree = bt_network(8)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=3)
        return tree.with_loads(loads)

    def test_reference_engine_has_no_repairer(self, workload):
        result = soar_gather(workload, 2)
        new_tree = workload.with_available(
            workload.available - {next(iter(sorted(workload.available)))}
        )
        with pytest.raises(RepairError, match="no flat tensors"):
            repair(result, new_tree)

    def test_repairer_registry_matches_flat_backends(self, workload):
        # Every backend repairs the flat tables it gathers.
        switch = sorted(workload.available)[0]
        new_tree = workload.with_available(workload.available - {switch})
        for backend in BACKENDS:
            repaired = repair(gather(workload, 2, backend=backend), new_tree, backend)
            assert_tables_equal(gather(new_tree, 2, backend=backend), repaired)

    def test_load_change_refused(self, workload):
        result = gather(workload, 2)
        leaves = [s for s in workload.switches if not workload.children(s)]
        patched = workload.with_loads(
            {**workload.loads, leaves[0]: workload.loads[leaves[0]] + 1}
        )
        with pytest.raises(RepairError, match="load"):
            repair(result, patched)

    def test_structure_change_refused(self, workload):
        result = gather(workload, 2)
        other = bt_network(16)
        other = other.with_loads(
            sample_leaf_loads(other, PowerLawLoadDistribution(), rng=3)
        )
        with pytest.raises(RepairError, match="structure"):
            repair(result, other)

    def test_effective_budget_shift_refused(self, workload):
        # |Λ| = 3 with requested budget 5 → effective 3; removing one more
        # available switch narrows the tensor width, so repair must refuse.
        small = workload.with_available(sorted(workload.available)[:3])
        result = gather(small, 5)
        assert result.budget == 3
        shrunk = small.with_available(sorted(small.available)[:2])
        with pytest.raises(RepairError, match="budget"):
            repair(result, shrunk)

    def test_non_switch_delta_refused(self, workload):
        result = gather(workload, 2)
        with pytest.raises(RepairError, match="switch"):
            dirty_ancestor_positions(
                workload, result.flat.index, {"no-such-switch"}
            )

    def test_table_repair_with_unknown_switch(self, workload):
        table = Solver().gather(workload, 2)
        with pytest.raises(AvailabilityError):
            table.repair({"no-such-switch"})


class TestColdGatherLazyTables:
    """Cold gathers hand out the same lazy mapping as repairs."""

    @pytest.fixture()
    def workload(self):
        tree = bt_network(16)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=5)
        available = frozenset(sorted(tree.switches)[::2])
        return tree.with_loads(loads, available=available)

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    @pytest.mark.parametrize("exact_k", [False, True])
    def test_nothing_materialized_until_accessed(self, workload, backend, exact_k):
        result = gather(workload, 3, exact_k, backend)
        tables = result.tables
        assert isinstance(tables, LazyNodeTables)
        assert dict.__len__(tables) == 0
        # The colour trace and the cost lookup read the flat tensors and the
        # root alone.
        soar_color_batched(workload, result)
        result.cost_for_budget(2)
        assert dict.__len__(tables) == 1
        assert_tables_equal(soar_gather(workload, 3, exact_k=exact_k), result)
        assert dict.__len__(tables) == workload.num_switches


class TestLazyNodeTables:
    """The repaired result's table mapping materializes views on demand."""

    @pytest.fixture()
    def repaired(self):
        tree = bt_network(8)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=11)
        workload = tree.with_loads(loads)
        result = gather(workload, 3)
        switch = sorted(workload.available)[0]
        new_tree = workload.with_available(workload.available ^ {switch})
        return repair(result, new_tree), gather(new_tree, 3)

    def test_is_lazy_and_complete(self, repaired):
        lazy, cold = repaired
        tables = lazy.tables
        assert isinstance(tables, LazyNodeTables)
        assert dict.__len__(tables) == 0  # nothing materialized up front
        assert len(tables) == len(cold.tables)
        assert set(tables) == set(cold.tables)

    def test_access_materializes_and_caches(self, repaired):
        lazy, _ = repaired
        tables = lazy.tables
        node = lazy.root
        first = tables[node]
        assert dict.__len__(tables) == 1
        assert tables[node] is first  # cached, not rebuilt

    def test_get_and_contains(self, repaired):
        lazy, _ = repaired
        tables = lazy.tables
        node = lazy.root
        assert node in tables
        assert "no-such-node" not in tables
        assert tables.get("no-such-node") is None
        assert tables.get("no-such-node", "sentinel") == "sentinel"
        assert tables.get(node) is tables[node]

    def test_views_match_cold_tables(self, repaired):
        lazy, cold = repaired
        assert_tables_equal(cold, lazy)

    def test_mapping_protocol_materializes(self, repaired):
        lazy, cold = repaired
        tables = lazy.tables
        assert sorted(tables.keys()) == sorted(cold.tables.keys())
        assert len(list(tables.values())) == len(cold.tables)
        assert {k for k, _ in tables.items()} == set(cold.tables)
        # Equality against a same-valued dict works via the dict identity
        # shortcut once materialized.
        assert tables == dict(tables.items())
