"""Tests for the SOAR algorithm: gather tables, colouring, and the staged solver API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bruteforce import solve_bruteforce
from repro.core.color import soar_color
from repro.core.cost import utilization_cost
from repro.core.engine import NUMPY_BACKEND
from repro.core.gather import BLUE, RED, normalize_budget, soar_gather
from repro.core.solver import GatherTable, Placement, Solver
from repro.core.tree import TreeNetwork
from repro.exceptions import InvalidBudgetError, PlacementError
from repro.topology.binary_tree import complete_binary_tree


class TestGatherTables:
    def test_table_shapes(self, paper_tree):
        gathered = soar_gather(paper_tree, 3)
        for switch in paper_tree.switches:
            table = gathered.tables[switch]
            assert table.x.shape == (paper_tree.depth(switch) + 1, 4)
            assert table.y_blue.shape == table.x.shape
            assert table.y_red.shape == table.x.shape
            assert table.choice.shape == table.x.shape

    def test_leaf_base_case(self, paper_tree):
        gathered = soar_gather(paper_tree, 2)
        table = gathered.tables["s2_1"]  # leaf with load 6, depth 3, unit rates
        # i = 0: red leaf contributes L(v) * l for every distance l.
        assert table.x[:, 0] == pytest.approx([0.0, 6.0, 12.0, 18.0])
        # i >= 1: a blue leaf contributes l.
        assert table.x[:, 1] == pytest.approx([0.0, 1.0, 2.0, 3.0])
        assert table.x[:, 2] == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_leaf_base_case_with_rates(self, small_tree):
        gathered = soar_gather(small_tree, 1)
        table = gathered.tables["b"]  # load 1, rho(b) = 0.25, rho(r) = 0.5
        assert table.x[:, 0] == pytest.approx([0.0, 0.25, 0.75])
        assert table.x[:, 1] == pytest.approx([0.0, 0.25, 0.75])

    def test_unavailable_leaf_cannot_be_blue(self, paper_tree):
        restricted = paper_tree.with_available(set(paper_tree.switches) - {"s2_1"})
        gathered = soar_gather(restricted, 2)
        table = gathered.tables["s2_1"]
        assert np.all(np.isinf(table.y_blue))
        assert table.x[:, 1] == pytest.approx(table.x[:, 0])

    def test_root_table_matches_bruteforce_for_every_budget(self, paper_tree):
        gathered = soar_gather(paper_tree, 4)
        for budget in range(5):
            expected = solve_bruteforce(paper_tree, budget).cost
            assert gathered.cost_for_budget(budget) == pytest.approx(expected)

    def test_optimal_cost_property(self, paper_tree):
        gathered = soar_gather(paper_tree, 2)
        assert gathered.optimal_cost == pytest.approx(20.0)

    def test_x_is_monotone_in_budget(self, loaded_bt16):
        gathered = soar_gather(loaded_bt16, 6)
        for table in gathered.tables.values():
            diffs = np.diff(table.x, axis=1)
            assert np.all(diffs <= 1e-9)

    def test_x_is_monotone_in_distance(self, loaded_bt16):
        # Farther blue ancestors can only cost more (rho is non-negative).
        gathered = soar_gather(loaded_bt16, 4)
        for table in gathered.tables.values():
            diffs = np.diff(table.x, axis=0)
            assert np.all(diffs >= -1e-9)

    def test_choice_consistent_with_y_tables(self, loaded_bt16):
        gathered = soar_gather(loaded_bt16, 4)
        for table in gathered.tables.values():
            blue_better = table.y_blue < table.y_red
            assert np.array_equal(table.choice == BLUE, blue_better)
            assert np.array_equal(table.choice == RED, ~blue_better)

    def test_budget_clamped_to_available(self, paper_tree):
        restricted = paper_tree.with_available({"s1_0", "s1_1"})
        gathered = soar_gather(restricted, 10)
        assert gathered.budget == 2
        assert gathered.requested_budget == 10

    def test_normalize_budget_validation(self, paper_tree):
        with pytest.raises(InvalidBudgetError):
            normalize_budget(paper_tree, -1)
        with pytest.raises(InvalidBudgetError):
            normalize_budget(paper_tree, 1.5)  # type: ignore[arg-type]
        with pytest.raises(InvalidBudgetError):
            normalize_budget(paper_tree, True)  # type: ignore[arg-type]
        assert normalize_budget(paper_tree, 100) == paper_tree.num_switches


class TestColor:
    def test_budget_zero_yields_empty_set(self, paper_tree):
        gathered = soar_gather(paper_tree, 0)
        assert soar_color(paper_tree, gathered) == frozenset()

    def test_traceback_cost_matches_table(self, loaded_bt16):
        gathered = soar_gather(loaded_bt16, 5)
        for budget in range(6):
            blue = soar_color(loaded_bt16, gathered, budget=budget)
            assert len(blue) <= budget
            assert utilization_cost(loaded_bt16, blue) == pytest.approx(
                gathered.cost_for_budget(budget)
            )

    def test_rejects_budget_above_gathered(self, paper_tree):
        gathered = soar_gather(paper_tree, 2)
        with pytest.raises(PlacementError):
            soar_color(paper_tree, gathered, budget=5)
        with pytest.raises(PlacementError):
            soar_color(paper_tree, gathered, budget=-1)

    def test_rejects_foreign_tables(self, paper_tree, small_tree):
        gathered = soar_gather(small_tree, 1)
        with pytest.raises(PlacementError):
            soar_color(paper_tree, gathered)

    def test_respects_availability(self, paper_tree):
        restricted = paper_tree.with_available({"s2_0", "s2_3"})
        gathered = soar_gather(restricted, 2)
        blue = soar_color(restricted, gathered)
        assert blue <= restricted.available


class TestSolver:
    def test_figure3_budget_sweep(self, paper_tree):
        solver = Solver()
        expected = {0: 51.0, 1: 35.0, 2: 20.0, 3: 15.0, 4: 11.0}
        for budget, cost in expected.items():
            solution = solver.solve(paper_tree, budget)
            assert solution.cost == pytest.approx(cost)
            assert solution.predicted_cost == pytest.approx(cost)
            assert solution.num_blue <= budget

    def test_figure3_unique_solutions(self, paper_tree):
        solver = Solver()
        # The paper notes the optimal sets for k = 2 and k = 3 are unique.
        assert solver.solve(paper_tree, 2).blue_nodes == frozenset({"s1_1", "s2_1"})
        assert solver.solve(paper_tree, 3).blue_nodes == frozenset(
            {"s2_1", "s2_2", "s2_3"}
        )

    def test_non_monotone_blue_sets(self, paper_tree):
        # Figure 3: the optimal set for k = 3 is not a superset of k = 2.
        table = Solver().gather(paper_tree, 3)
        assert not table.place(2).blue_nodes <= table.place(3).blue_nodes

    def test_solution_within_availability(self, paper_tree):
        restricted = paper_tree.with_available({"s1_0", "s2_3"})
        solution = Solver().solve(restricted, 2)
        assert solution.blue_nodes <= restricted.available
        assert solution.cost == pytest.approx(solve_bruteforce(restricted, 2).cost)

    def test_budget_larger_than_network(self, paper_tree):
        solution = Solver().solve(paper_tree, 100)
        assert solution.cost == pytest.approx(7.0)  # all-blue cost
        assert solution.table.budget == paper_tree.num_switches
        assert solution.table.requested_budget == 100

    def test_cost_helper(self, paper_tree):
        assert Solver().cost(paper_tree, 2) == pytest.approx(20.0)

    def test_rejects_unknown_engine_and_color(self):
        # Kernels are a Backend object now: the old name knobs fail loudly.
        with pytest.raises(TypeError):
            Solver(engine="flat")
        with pytest.raises(TypeError):
            Solver(color="batched")

    def test_sweep_shares_one_table(self, paper_tree):
        sweep = Solver().sweep(paper_tree, [0, 1, 2, 3, 4])
        assert {k: s.cost for k, s in sweep.items()} == pytest.approx(
            {0: 51.0, 1: 35.0, 2: 20.0, 3: 15.0, 4: 11.0}
        )
        tables = {id(s.table) for s in sweep.values()}
        assert len(tables) == 1

    def test_sweep_rejects_negative(self, paper_tree):
        with pytest.raises(InvalidBudgetError):
            Solver().sweep(paper_tree, [-1, 2])

    def test_sweep_empty(self, paper_tree):
        assert Solver().sweep(paper_tree, []) == {}

    def test_table_reuse_across_budgets(self, paper_tree):
        table = Solver().gather(paper_tree, 4)
        for budget in range(5):
            placement = table.place(budget)
            assert placement.cost == pytest.approx(
                solve_bruteforce(paper_tree, budget).cost
            )
            assert placement.table is table

    def test_table_records_provenance(self, paper_tree):
        table = Solver(backend=NUMPY_BACKEND, exact_k=True).gather(paper_tree, 3)
        assert isinstance(table, GatherTable)
        assert table.backend is NUMPY_BACKEND and table.exact_k is True
        assert table.fingerprint == paper_tree.fingerprint()
        assert table.root == paper_tree.root

    def test_solve_many_groups_same_tree(self, paper_tree, loaded_bt16):
        solver = Solver()
        placements = solver.solve_many(
            [(paper_tree, 2), (loaded_bt16, 3), (paper_tree, 4)]
        )
        assert [p.budget for p in placements] == [2, 3, 4]
        # Same-tree instances share one gather artifact (at the widest budget).
        assert placements[0].table is placements[2].table
        assert placements[0].table is not placements[1].table
        assert placements[0].cost == pytest.approx(20.0)
        assert placements[2].cost == pytest.approx(11.0)

    def test_sweep_many(self, paper_tree, loaded_bt16):
        results = Solver().sweep_many(
            [(paper_tree, (1, 2)), (loaded_bt16, (0, 4))]
        )
        assert [sorted(sweep) for sweep in results] == [[1, 2], [0, 4]]
        assert results[0][2].cost == pytest.approx(20.0)

    def test_costs_monotone_in_budget(self, loaded_bt16):
        sweep = Solver().sweep(loaded_bt16, range(0, 10))
        costs = [sweep[k].cost for k in sorted(sweep)]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_internal_switch_loads_supported(self):
        tree = TreeNetwork(
            parents={"r": "d", "a": "r", "b": "r", "c": "a"},
            loads={"r": 2, "a": 1, "b": 4, "c": 3},
        )
        for budget in range(4):
            assert Solver().solve(tree, budget).cost == pytest.approx(
                solve_bruteforce(tree, budget).cost
            )

    def test_zero_load_tree(self):
        tree = complete_binary_tree(4)
        solution = Solver().solve(tree, 2)
        assert solution.cost == 0.0
        assert solution.blue_nodes == frozenset()

    def test_placement_is_a_placement(self, paper_tree):
        assert isinstance(Solver().solve(paper_tree, 2), Placement)


class TestExactKMode:
    def test_exact_matches_bruteforce_exact(self, paper_tree):
        solver = Solver(exact_k=True)
        for budget in range(1, 5):
            solution = solver.solve(paper_tree, budget)
            expected = solve_bruteforce(paper_tree, budget, exact_k=True)
            assert solution.cost == pytest.approx(expected.cost)

    def test_with_semantics(self, paper_tree):
        solver = Solver()
        assert solver.with_semantics(True).exact_k is True
        assert solver.with_semantics(True).backend is solver.backend

    def test_exact_uses_full_budget_on_positive_loads(self, paper_tree):
        solution = Solver(exact_k=True).solve(paper_tree, 3)
        assert solution.num_blue == 3

    def test_at_most_never_worse_than_exact(self, loaded_bt16):
        for budget in range(0, 8):
            at_most = Solver().solve(loaded_bt16, budget).cost
            exact = Solver(exact_k=True).solve(loaded_bt16, budget).cost
            assert at_most <= exact + 1e-9

    def test_exact_mode_zero_load_leaf(self):
        # With a zero-load leaf, forcing exactly k blue nodes can cost more
        # than the at-most-k optimum; both must still match their brute force.
        tree = TreeNetwork(
            parents={"r": "d", "a": "r", "b": "r"},
            loads={"a": 5, "b": 0},
        )
        for budget in range(0, 3):
            assert Solver().solve(tree, budget).cost == pytest.approx(
                solve_bruteforce(tree, budget).cost
            )
            assert Solver(exact_k=True).solve(tree, budget).cost == pytest.approx(
                solve_bruteforce(tree, budget, exact_k=True).cost
            )


class TestBruteForce:
    def test_rejects_negative_budget(self, paper_tree):
        with pytest.raises(InvalidBudgetError):
            solve_bruteforce(paper_tree, -1)

    def test_subset_guard(self, loaded_bt16):
        with pytest.raises(InvalidBudgetError):
            solve_bruteforce(loaded_bt16, 7, max_subsets=10)

    def test_respects_availability(self, paper_tree):
        restricted = paper_tree.with_available({"s2_0"})
        result = solve_bruteforce(restricted, 3)
        assert result.blue_nodes <= restricted.available

    def test_examined_count(self, small_tree):
        result = solve_bruteforce(small_tree, 1)
        # 1 empty subset + 3 singletons.
        assert result.subsets_examined == 4
