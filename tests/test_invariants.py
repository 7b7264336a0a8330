"""Invariant checks on every solve, driven by the ``repro.testing`` checkers.

These tests pin the *semantic* contract of the solver regardless of which
backend (or the per-node reference walk) produced the tables:

* ``predicted_cost == cost`` on every solve (the DP optimum matches the
  cost recomputed from the Reduce message counts),
* ``|blue| <= budget`` and ``blue ⊆ Λ``,
* the optimal cost is monotonically non-increasing in the budget
  (at-most-k semantics),
* the ``all_red >= optimal >= all_blue`` sandwich on positive-load
  instances,
* structural gather-table invariants (``X = min(Y_blue, Y_red)``,
  monotonicity in ``l`` and in the budget).

The checkers themselves are also tested: a checker that cannot fail would
pin nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from backend_params import BACKEND_PARAMS, GATHER_PARAMS
from repro.core.color import soar_color
from repro.core.cost import utilization_cost
from repro.core.engine import BACKENDS, gather
from repro.core.gather import soar_gather
from repro.core.solver import Placement, Solver
from repro.experiments.motivating import motivating_tree
from repro.testing import (
    AVAILABILITY_PATTERNS,
    DYADIC_RATES,
    LOAD_TIE_PROFILES,
    NEAR_TIE_EPSILON,
    RATE_PROFILES,
    assert_budget_monotone,
    assert_cost_sandwich,
    assert_gather_consistent,
    assert_placement_feasible,
    assert_solution_consistent,
    bruteforce_subset_count,
    check_budget_sweep,
    check_instance,
    near_tie_stream,
    patterned_availability,
    random_budget,
    random_instance,
    random_rates,
    random_tie_loads,
)


def _reference_solve(tree, budget, exact_k):
    """The paper's per-node walks end to end, as a :class:`Placement`."""
    gathered = soar_gather(tree, budget, exact_k=exact_k)
    blue = soar_color(tree, gathered)
    return Placement(
        blue_nodes=blue,
        cost=utilization_cost(tree, blue),
        predicted_cost=gathered.optimal_cost,
        budget=gathered.budget,
        table=None,
    )


class TestSolutionInvariants:
    @pytest.mark.parametrize("backend", [*BACKEND_PARAMS, pytest.param(None, id="reference")])
    @pytest.mark.parametrize("exact_k", [False, True])
    def test_paper_tree_every_budget(self, backend, exact_k):
        tree = motivating_tree()
        for budget in range(tree.num_switches + 1):
            if backend is None:
                solution = _reference_solve(tree, budget, exact_k)
            else:
                solution = Solver(backend=backend, exact_k=exact_k).solve(tree, budget)
            assert_solution_consistent(tree, solution)

    def test_random_instances_predicted_equals_cost(self, session_rng):
        for _ in range(25):
            tree = random_instance(session_rng, max_switches=11)
            budget = random_budget(session_rng, tree)
            for exact_k in (False, True):
                solution = Solver(exact_k=exact_k).solve(tree, budget)
                assert_solution_consistent(tree, solution)

    def test_restricted_availability_respected(self, session_rng):
        for _ in range(20):
            tree = random_instance(session_rng, restrict_availability=True, max_switches=11)
            budget = random_budget(session_rng, tree)
            solution = Solver().solve(tree, budget)
            assert_placement_feasible(tree, solution.blue_nodes, budget)


class TestBudgetMonotonicity:
    def test_paper_tree_curve(self, paper_tree):
        costs = check_budget_sweep(paper_tree, paper_tree.num_switches)
        # Figure 3's specific values double-check the sweep itself.
        assert costs[1] == 35.0 and costs[2] == 20.0 and costs[3] == 15.0 and costs[4] == 11.0

    def test_random_instances_monotone(self, session_rng):
        for _ in range(15):
            tree = random_instance(session_rng, max_switches=10)
            check_budget_sweep(tree, min(len(tree.available), 6))


class TestCostSandwich:
    def test_positive_load_instances(self, session_rng):
        for _ in range(20):
            tree = random_instance(session_rng, load_profile="positive", max_switches=10)
            budget = random_budget(session_rng, tree)
            solution = Solver().solve(tree, budget)
            assert_cost_sandwich(tree, solution.cost)

    def test_zero_load_instances_skip_lower_bound(self, session_rng):
        # With zero loads the all-blue "lower bound" does not apply; the
        # checker must still validate the all-red upper bound.
        tree = random_instance(session_rng, load_profile="zero", max_switches=8)
        solution = Solver().solve(tree, 2)
        assert_cost_sandwich(tree, solution.cost)
        assert solution.cost == 0.0


class TestGatherTableInvariants:
    @pytest.mark.parametrize("run_gather", GATHER_PARAMS)
    @pytest.mark.parametrize("exact_k", [False, True])
    def test_paper_tree_tables(self, run_gather, exact_k):
        tree = motivating_tree()
        gathered = run_gather(tree, 3, exact_k=exact_k)
        assert_gather_consistent(tree, gathered)

    def test_random_instances_tables(self, session_rng):
        for _ in range(10):
            tree = random_instance(session_rng, max_switches=10)
            budget = random_budget(session_rng, tree)
            assert_gather_consistent(tree, soar_gather(tree, budget))
            for backend in BACKENDS:
                assert_gather_consistent(tree, gather(tree, budget, backend=backend))


class TestCheckersCanFail:
    """Negative tests: every checker must reject a violated invariant."""

    def test_budget_monotone_rejects_increase(self):
        with pytest.raises(AssertionError, match="cost increased"):
            assert_budget_monotone({0: 10.0, 1: 12.0})

    def test_placement_feasible_rejects_stray_blue(self, paper_tree):
        restricted = paper_tree.with_available(["s1_0"])
        with pytest.raises(AssertionError, match="outside the availability"):
            assert_placement_feasible(restricted, {"s1_1"}, 2)

    def test_placement_feasible_rejects_overbudget(self, paper_tree):
        with pytest.raises(AssertionError, match="budget"):
            assert_placement_feasible(paper_tree, {"s1_0", "s1_1"}, 1)

    def test_sandwich_rejects_impossible_cost(self, paper_tree):
        with pytest.raises(AssertionError, match="exceeds the all-red"):
            assert_cost_sandwich(paper_tree, 1e9)
        with pytest.raises(AssertionError, match="all-blue lower bound"):
            assert_cost_sandwich(paper_tree, 0.5)

    def test_bruteforce_subset_count(self, paper_tree):
        # 7 switches: C(7,0) + C(7,1) + C(7,2) = 29 subsets for k = 2.
        assert bruteforce_subset_count(paper_tree, 2) == 29
        assert bruteforce_subset_count(paper_tree, 2, exact_k=True) == 21

    def test_check_instance_runs_bruteforce_when_small(self, paper_tree):
        solutions = check_instance(paper_tree, 2)
        assert {name: solution.cost for name, solution in solutions.items()} == {
            backend.name: 20.0 for backend in BACKENDS
        }


class TestNearTieRates:
    """Adversarial near-tie rate structures stressing argmin tie-breaking.

    Symmetric (``constant`` / ``sibling_tie``) and almost-symmetric
    (``near_tie``) rates make whole families of placements cost-equal or
    separated by margins of order 2^-8 — any ``<=`` vs ``<`` confusion in
    the convolution argmin or the colour decision changes which optimum is
    traced, which the differential check against brute force catches.
    """

    def test_rate_profiles_shapes(self, session_rng):
        parents = {0: "d", 1: 0, 2: 0, 3: 1, 4: 1}
        constant = random_rates(session_rng, parents, profile="constant")
        assert len(set(constant.values())) == 1
        siblings = random_rates(session_rng, parents, profile="sibling_tie")
        assert siblings[1] == siblings[2] and siblings[3] == siblings[4]
        near = random_rates(session_rng, parents, profile="near_tie")
        # One shared dyadic base, every rate equal to base * (1 + delta*eps)
        # with delta in {-1, 0, +1}.  Quantifying over the *known* dyadic
        # bases keeps the check falsifiable (e.g. a rate of 3.7 matches no
        # base), unlike deriving the candidate bases from the rates.
        assert any(
            all(
                rate
                in {
                    base,
                    base * (1.0 + NEAR_TIE_EPSILON),
                    base * (1.0 - NEAR_TIE_EPSILON),
                }
                for rate in near.values()
            )
            for base in DYADIC_RATES
        )
        with pytest.raises(ValueError, match="unknown rate profile"):
            random_rates(session_rng, parents, profile="nope")

    @pytest.mark.parametrize(
        "profile", [p for p in RATE_PROFILES if p != "dyadic"]
    )
    def test_tie_profiles_differential(self, session_rng, profile):
        for _ in range(12):
            tree = random_instance(
                session_rng, rate_profile=profile, max_switches=9
            )
            budget = random_budget(session_rng, tree)
            check_instance(tree, budget)
            check_instance(tree, budget, exact_k=True)

    def test_near_tie_stream_differential(self):
        for tree, budget in near_tie_stream(20211207, 18, max_switches=9):
            check_instance(tree, budget)

    def test_exact_ties_on_symmetric_binary_tree(self, session_rng):
        # Fully symmetric instance: constant rates, equal loads.  Every
        # same-level placement is exactly tied; the sweep must still be
        # monotone and consistent across backends and against brute force.
        tree = random_instance(
            session_rng,
            shape="binary",
            num_switches=7,
            rate_profile="constant",
            load_profile="positive",
            restrict_availability=False,
        ).with_loads({switch: 2 for switch in range(7)})
        check_budget_sweep(tree, 5)
        check_instance(tree, 3)


class TestNearTieLoadsAndAvailability:
    """Load-tie profiles and straddling Λ patterns (the ROADMAP item twinned
    with the rate profiles), stressing the batched colour kernel's
    tie-breaking: ``check_instance`` traces the reference colour walk out
    of every backend's tables and requires identical blue sets."""

    def test_tie_load_shapes(self, session_rng):
        parents = {0: "d", 1: 0, 2: 0, 3: 1, 4: 1}
        constant = random_tie_loads(session_rng, parents, profile="constant")
        assert len(set(constant.values())) == 1 and min(constant.values()) >= 1
        siblings = random_tie_loads(session_rng, parents, profile="sibling_tie")
        assert siblings[1] == siblings[2] and siblings[3] == siblings[4]
        near = random_tie_loads(session_rng, parents, profile="near_tie")
        assert max(near.values()) - min(near.values()) <= 2
        assert min(near.values()) >= 0
        with pytest.raises(ValueError, match="unknown load-tie profile"):
            random_tie_loads(session_rng, parents, profile="nope")

    def test_availability_pattern_shapes(self, session_rng):
        tree = random_instance(
            session_rng, shape="binary", num_switches=15, restrict_availability=False
        )
        split = patterned_availability(session_rng, tree, "sibling_split")
        # Every sibling pair of the complete binary tree is split: exactly
        # one of the two children is admissible.
        for node in tree.switches:
            children = tree.children(node)
            if len(children) == 2:
                assert len(set(children) & set(split)) == 1
        stripe = patterned_availability(session_rng, tree, "level_stripe")
        assert len({tree.depth(node) % 2 for node in stripe}) <= 1
        with pytest.raises(ValueError, match="unknown availability pattern"):
            patterned_availability(session_rng, tree, "nope")

    @pytest.mark.parametrize("load_profile", LOAD_TIE_PROFILES)
    def test_tie_load_profiles_differential(self, session_rng, load_profile):
        for _ in range(8):
            tree = random_instance(
                session_rng, rate_profile="constant", max_switches=9
            )
            parents = {switch: tree.parent(switch) for switch in tree.switches}
            tree = tree.with_loads(
                random_tie_loads(session_rng, parents, profile=load_profile)
            )
            budget = random_budget(session_rng, tree)
            check_instance(tree, budget)
            check_instance(tree, budget, exact_k=True)

    @pytest.mark.parametrize(
        "pattern", [p for p in AVAILABILITY_PATTERNS if p != "independent"]
    )
    def test_straddling_availability_differential(self, session_rng, pattern):
        for _ in range(8):
            tree = random_instance(
                session_rng,
                rate_profile="sibling_tie",
                load_profile="positive",
                max_switches=9,
                restrict_availability=False,
            )
            tree = tree.with_available(
                patterned_availability(session_rng, tree, pattern)
            )
            budget = random_budget(session_rng, tree)
            check_instance(tree, budget)

    def test_symmetric_instance_straddled_availability(self, session_rng):
        # The fully symmetric worst case: constant rates, constant loads,
        # and a Λ that keeps exactly one child of every sibling pair — the
        # traced optimum must come entirely from the admissible side.
        tree = random_instance(
            session_rng,
            shape="binary",
            num_switches=15,
            rate_profile="constant",
            restrict_availability=False,
        ).with_loads({switch: 3 for switch in range(15)})
        tree = tree.with_available(
            patterned_availability(session_rng, tree, "sibling_split")
        )
        check_budget_sweep(tree, min(6, len(tree.available)))
        check_instance(tree, 3)


@pytest.mark.slow
class TestNearTieSweep:
    """Broad near-tie sweep (slow tier), the ROADMAP open item."""

    def test_hundred_near_tie_instances(self):
        for tree, budget in near_tie_stream(20212021, 100, max_switches=11):
            check_instance(tree, budget, bruteforce=False)
            assert_gather_consistent(tree, gather(tree, budget))


@pytest.mark.slow
class TestInvariantSweep:
    """Broad randomized invariant sweep (slow tier)."""

    def test_two_hundred_instances_all_invariants(self):
        rng = np.random.default_rng(424242)
        for _ in range(200):
            tree = random_instance(rng, max_switches=12)
            budget = random_budget(rng, tree)
            check_instance(tree, budget, bruteforce=False)
            assert_gather_consistent(tree, soar_gather(tree, budget))
            for backend in BACKENDS:
                assert_gather_consistent(tree, gather(tree, budget, backend=backend))
