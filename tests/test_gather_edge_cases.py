"""Edge-case tests for the SOAR dynamic program (gather + color internals)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bruteforce import solve_bruteforce
from repro.core.color import soar_color
from repro.core.cost import utilization_cost
from repro.core.engine import NUMPY_BACKEND
from repro.core.gather import soar_gather
from repro.core.solver import Solver
from repro.core.tree import TreeNetwork
from repro.topology.generic import kary_tree, path_network, star_network


class TestDegenerateShapes:
    def test_single_switch(self):
        tree = TreeNetwork({"r": "d"}, loads={"r": 5})
        assert Solver().solve(tree, 0).cost == 5.0
        solution = Solver().solve(tree, 1)
        assert solution.cost == 1.0
        assert solution.blue_nodes == frozenset({"r"})

    def test_single_switch_zero_load(self):
        tree = TreeNetwork({"r": "d"})
        solution = Solver().solve(tree, 1)
        assert solution.cost == 0.0
        assert solution.blue_nodes == frozenset()

    def test_deep_path_single_blue_placement(self):
        # On a path with load only at the far end, one blue node belongs at
        # the deepest switch: the single aggregated message then travels the
        # whole path instead of `load` messages doing so.
        tree = path_network(6, leaf_load=7)
        solution = Solver().solve(tree, 1)
        assert solution.blue_nodes == frozenset({5})
        assert solution.cost == pytest.approx(7.0 * 0 + 1.0 * 6)

    def test_path_blue_useless_when_load_is_one(self):
        tree = path_network(5, leaf_load=1)
        solution = Solver().solve(tree, 3)
        assert solution.cost == 5.0
        assert solution.blue_nodes == frozenset()

    def test_star_with_wide_fanout(self):
        tree = star_network(12, leaf_loads=[3] * 12)
        for budget in (0, 1, 3, 12):
            assert Solver().solve(tree, budget).cost == pytest.approx(
                solve_bruteforce(tree, budget).cost
            )

    def test_unary_chain_of_internal_loads(self):
        # Internal switches with their own servers along a single chain.
        tree = TreeNetwork(
            parents={"a": "d", "b": "a", "c": "b"},
            loads={"a": 2, "b": 3, "c": 4},
            rates={"a": 2.0, "b": 1.0, "c": 0.5},
        )
        for budget in range(4):
            assert Solver().solve(tree, budget).cost == pytest.approx(
                solve_bruteforce(tree, budget).cost
            )

    def test_high_fanout_internal_node(self):
        tree = kary_tree(5, 1, leaf_loads=[1, 2, 3, 4, 5])
        for budget in range(0, 7):
            assert Solver().solve(tree, budget).cost == pytest.approx(
                solve_bruteforce(tree, budget).cost
            )


class TestAvailabilityAtInternalNodes:
    def test_only_root_available(self, paper_tree):
        restricted = paper_tree.with_available({paper_tree.root})
        solution = Solver().solve(restricted, 3)
        assert solution.blue_nodes <= {paper_tree.root}
        assert solution.cost == pytest.approx(solve_bruteforce(restricted, 3).cost)

    def test_only_leaves_available(self, paper_tree):
        restricted = paper_tree.with_available(set(paper_tree.leaves()))
        solution = Solver().solve(restricted, 2)
        assert solution.blue_nodes <= set(paper_tree.leaves())
        assert solution.cost == pytest.approx(solve_bruteforce(restricted, 2).cost)

    def test_empty_budget_with_restricted_availability(self, paper_tree):
        restricted = paper_tree.with_available({"s2_0"})
        assert Solver().solve(restricted, 0).blue_nodes == frozenset()


class TestGatherColorContracts:
    def test_cost_for_budget_clamps(self, paper_tree):
        gathered = soar_gather(paper_tree, 2)
        assert gathered.cost_for_budget(100) == gathered.cost_for_budget(2)

    def test_narrow_table_clamps_and_fresh_gather_honours_budget(self, paper_tree):
        solver = Solver(backend=NUMPY_BACKEND)
        narrow = solver.gather(paper_tree, 1)
        # A table only answers the budgets it carries: larger requests clamp.
        assert narrow.place(3).budget == 1
        # Honouring the larger budget takes a fresh gather.
        solution = solver.solve(paper_tree, 3)
        assert solution.cost == pytest.approx(15.0)
        assert solution.table.budget >= 3

    def test_color_with_smaller_budget_than_gather(self, loaded_bt16):
        gathered = soar_gather(loaded_bt16, 8)
        for budget in (0, 1, 4, 8):
            blue = soar_color(loaded_bt16, gathered, budget=budget)
            assert utilization_cost(loaded_bt16, blue) == pytest.approx(
                gathered.cost_for_budget(budget)
            )

    def test_gather_handles_heterogeneous_rates_on_path_to_root(self):
        # Rates chosen so aggregating in the middle of the path (not at the
        # leaf, not at the root) is uniquely optimal: the slow middle link
        # dominates and must carry as few messages as possible.
        tree = TreeNetwork(
            parents={"top": "d", "mid": "top", "leaf": "mid"},
            rates={"top": 10.0, "mid": 0.1, "leaf": 10.0},
            loads={"leaf": 9},
        )
        solution = Solver().solve(tree, 1)
        assert solution.blue_nodes == frozenset({"leaf"})
        # Placing it at "mid" instead would push 9 messages over the slow link.
        assert solution.cost < utilization_cost(tree, {"mid"})

    def test_numerical_stability_with_extreme_rates(self):
        rng = np.random.default_rng(0)
        parents = {0: "d"}
        for node in range(1, 12):
            parents[node] = int(rng.integers(0, node))
        rates = {node: float(10.0 ** rng.integers(-3, 4)) for node in parents}
        loads = {node: int(rng.integers(0, 5)) for node in parents}
        tree = TreeNetwork(parents, rates=rates, loads=loads)
        for budget in (0, 2, 5):
            assert Solver().solve(tree, budget).cost == pytest.approx(
                solve_bruteforce(tree, budget).cost, rel=1e-9
            )
