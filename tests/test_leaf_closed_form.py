"""Leaves own no table block: their DP columns are a closed form.

A leaf's SOAR-Gather tables are a closed form of its load, its ρ-path
prefix and its Λ membership (Algorithm 3 lines 1-9), so the flat tables
allocate blocks for internal switches only and every kernel computes a
leaf child's ``x`` rows where a stage reads them.  These tests hold both
backends bit-identical to the per-node reference walk on the shapes where
leaves and internal switches mix (a root that is a leaf, paths,
caterpillars with leaves at mixed depths, scale-free trees), at the
smallest budgets, and across leaf-only repairs that grow a lineage's
:class:`~repro.core.flat.ColumnStore`; and they pin the block counts.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from backend_params import BACKEND_PARAMS
from repro.core.color import soar_color
from repro.core.cost import utilization_cost
from repro.core.engine import gather, repair
from repro.core.flat import allocate_tables, dirty_ancestor_positions
from repro.core.gather import soar_gather
from repro.core.solver import Solver
from repro.core.tree import TreeNetwork
from repro.exceptions import RepairError
from repro.testing import assert_tables_equal
from repro.topology.binary_tree import bt_network
from repro.topology.generic import path_network
from repro.topology.scale_free import scale_free_tree
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads

pytestmark = pytest.mark.parametrize("backend", BACKEND_PARAMS)


def _internal_count(tree: TreeNetwork) -> int:
    return sum(1 for switch in tree.switches if tree.children(switch))


def _leaves(tree: TreeNetwork) -> list:
    return [switch for switch in tree.switches if not tree.children(switch)]


def _caterpillar(spine: int) -> TreeNetwork:
    """A spine of ``spine`` switches, each with one leaf hanging off it.

    The leaves sit at every depth 2 .. spine + 1, the spine's last switch
    also ends in a leaf, and internal switches carry load too, so every
    spine switch but the last has a leaf and an internal child.
    """
    parents: dict = {"s0": "d"}
    for i in range(1, spine):
        parents[f"s{i}"] = f"s{i - 1}"
    for i in range(spine):
        parents[f"leaf{i}"] = f"s{i}"
    parents["tail"] = f"s{spine - 1}"
    loads = {node: 1 + (index * 7) % 5 for index, node in enumerate(sorted(parents))}
    rates = {node: 0.5 + (index % 3) for index, node in enumerate(sorted(parents))}
    available = frozenset(node for index, node in enumerate(sorted(parents)) if index % 3)
    return TreeNetwork(parents, loads=loads, rates=rates, available=available)


def _answer(placement):
    return placement.blue_nodes, placement.cost, placement.predicted_cost, placement.budget


def _assert_matches_reference(tree: TreeNetwork, budget: int, exact_k: bool, backend) -> None:
    """Tables, costs, placements and sweeps equal the reference walk's."""
    reference = soar_gather(tree, budget, exact_k=exact_k)
    table = Solver(backend=backend, exact_k=exact_k).gather(tree, budget)
    assert_tables_equal(reference, table.result)
    flat = table.result.flat
    assert flat.y_red.shape[0] == flat.y_blue.shape[0] == _internal_count(tree)
    for b in range(table.budget + 1):
        assert table.cost(b) == reference.cost_for_budget(b)
        blue = soar_color(tree, reference, b)
        placement = table.place(b)
        assert placement.blue_nodes == blue
        assert placement.cost == utilization_cost(tree, blue)
    sweep = table.sweep(range(table.budget + 2))
    for b, placement in sweep.items():
        assert _answer(placement) == _answer(table.place(b))


@pytest.mark.parametrize("exact_k", [False, True], ids=["at-most-k", "exact-k"])
class TestShapes:
    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("available", [True, False], ids=["in-lambda", "outside-lambda"])
    def test_single_switch_root_is_a_leaf(self, backend, exact_k, budget, available):
        tree = TreeNetwork(
            {"r": "d"}, loads={"r": 5}, available=frozenset({"r"} if available else ())
        )
        _assert_matches_reference(tree, budget, exact_k, backend)
        flat = gather(tree, budget, exact_k=exact_k, backend=backend).flat
        assert flat.y_red.shape[0] == 0 and flat.num_stages == 0
        root = flat.node_tables(0)
        reference = soar_gather(tree, budget, exact_k=exact_k).tables["r"]
        for name in ("x", "y_blue", "y_red", "choice"):
            assert np.array_equal(getattr(root, name), getattr(reference, name))

    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_path(self, backend, exact_k, budget):
        tree = path_network(7, leaf_load=9)
        _assert_matches_reference(tree, budget, exact_k, backend)
        loaded = tree.with_loads({switch: 1 + switch % 3 for switch in tree.switches})
        _assert_matches_reference(loaded, budget, exact_k, backend)

    @pytest.mark.parametrize("budget", [0, 1, 4])
    def test_caterpillar_mixes_leaf_and_internal_children(self, backend, exact_k, budget):
        tree = _caterpillar(6)
        depths = {tree.depth(leaf) for leaf in _leaves(tree)}
        assert len(depths) >= 5
        _assert_matches_reference(tree, budget, exact_k, backend)

    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_scale_free(self, backend, exact_k, budget):
        tree = scale_free_tree(80, rng=13)
        rng = np.random.default_rng(5)
        tree = tree.with_loads(
            {switch: int(rng.integers(0, 6)) for switch in tree.switches},
            available=frozenset(s for s in tree.switches if rng.random() < 0.6),
        )
        parents_of_both = [
            switch
            for switch in tree.switches
            if len({bool(tree.children(c)) for c in tree.children(switch)}) == 2
        ]
        assert parents_of_both  # some parent has a leaf and an internal child
        _assert_matches_reference(tree, budget, exact_k, backend)


@pytest.fixture()
def workload():
    tree = bt_network(32)
    loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=23)
    available = frozenset(sorted(tree.switches)[::2]) | {tree.root}
    return tree.with_loads(loads, available=available)


class TestBlockCounts:
    def test_allocate_tables_holds_one_block_per_internal_switch(self, backend, workload):
        flat = allocate_tables(workload, 5, exact_k=False)
        assert flat.y_blue.shape == flat.y_red.shape == (15, workload.height + 1, 6)
        assert _internal_count(workload) == 15
        assert flat.col.shape == (workload.num_switches,)
        assert (flat.col[flat.leaf] == -1).all()
        assert sorted(flat.col[flat.internal].tolist()) == list(range(15))

    def test_flipped_leaf_claims_no_block(self, backend, workload):
        table = Solver(backend=backend).gather(workload, 5)
        source = table.result.flat
        leaf = _leaves(workload)[3]
        delta = frozenset({leaf})
        repaired = table.repair(delta)
        store = repaired.result.flat.store
        dirty = dirty_ancestor_positions(workload, source.index, delta)
        ancestors = int(np.count_nonzero(~source.leaf[dirty]))
        assert ancestors == dirty.size - 1 == workload.depth(leaf) - 1
        columns, _slots = store.live_blocks()
        assert columns == _internal_count(workload) + ancestors
        assert (repaired.result.flat.col[repaired.result.flat.leaf] == -1).all()
        del repaired
        gc.collect()
        # Once the repair is dropped only the source's blocks are live.
        assert store.live_blocks() == (_internal_count(workload), source.num_stages)

    @pytest.mark.parametrize("exact_k", [False, True], ids=["at-most-k", "exact-k"])
    def test_leaf_only_flips_across_store_growth(self, backend, workload, exact_k):
        solver = Solver(backend=backend, exact_k=exact_k)
        table = solver.gather(workload, 5)
        capacities = []
        alive = [table]  # every repair stays live, so the store must grow
        rng = np.random.default_rng(11)
        leaves = _leaves(workload)
        for _ in range(12):
            picks = rng.choice(len(leaves), size=2, replace=False)
            delta = frozenset(leaves[int(p)] for p in picks)
            if min(5, len(alive[-1].tree.available ^ delta)) != alive[-1].budget:
                continue
            repaired = alive[-1].repair(delta)
            alive.append(repaired)
            capacities.append(len(repaired.result.flat.store.columns.refs))
            cold = gather(repaired.tree, 5, exact_k=exact_k, backend=backend)
            assert_tables_equal(cold, repaired.result)
            assert_tables_equal(soar_gather(repaired.tree, 5, exact_k=exact_k), repaired.result)
            fresh = solver.gather(repaired.tree, 5)
            for b in range(6):
                assert _answer(repaired.place(b)) == _answer(fresh.place(b))
        assert len(set(capacities)) >= 2  # the store grew under live tables
        for earlier in alive:
            # Growth re-pins every table: each still reads its own columns.
            assert_tables_equal(
                gather(earlier.tree, 5, exact_k=exact_k, backend=backend), earlier.result
            )

    def test_repair_of_single_switch_root(self, backend):
        tree = TreeNetwork({"r": "d"}, loads={"r": 4})
        result = gather(tree, 1, backend=backend)
        flipped = tree.with_available(frozenset())
        with pytest.raises(RepairError):
            repair(result, flipped, backend)  # |Λ| falls below the budget
        result0 = gather(tree, 0, backend=backend)
        repaired = repair(result0, flipped, backend)
        assert repaired.flat.y_red.shape[0] == 0
        assert_tables_equal(soar_gather(flipped, 0), repaired)
