"""Invariant checkers for φ-BIC solutions and SOAR gather tables.

Every checker raises :class:`AssertionError` with a descriptive message on
violation and returns useful values on success, so they compose equally
well inside ``pytest`` tests and ad-hoc fuzzing scripts.  The one-stop
:func:`check_instance` runs a full differential verification of one
instance: solve on every backend, check per-solution invariants, compare
each backend bit for bit against the per-node reference walks of the
paper, and (on small instances) against the brute-force ground truth.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core.bruteforce import solve_bruteforce
from repro.core.cost import (
    all_blue_cost,
    all_red_cost,
    utilization_cost,
    utilization_cost_barrier,
)
from repro.core.color import soar_color
from repro.core.engine import BACKENDS, Backend
from repro.core.gather import GatherResult, soar_gather
from repro.core.solver import Placement, Solver
from repro.core.tree import NodeId, TreeNetwork

#: Relative tolerance for cost comparisons.  With the dyadic rates of
#: :mod:`repro.testing.generators` every comparison is in fact exact; the
#: tolerance only matters for user-supplied instances with arbitrary rates.
REL_TOL: float = 1e-9
ABS_TOL: float = 1e-12


def costs_close(a: float, b: float) -> bool:
    """Equality of two utilization values, treating ``inf == inf`` as true."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def assert_placement_feasible(
    tree: TreeNetwork,
    blue_nodes: Iterable[NodeId],
    budget: int,
) -> frozenset[NodeId]:
    """``blue ⊆ Λ`` and ``|blue| <= budget``; returns the frozen placement."""
    blue = frozenset(blue_nodes)
    stray = blue - tree.available
    assert not stray, f"blue nodes outside the availability set Λ: {sorted(map(repr, stray))}"
    assert len(blue) <= budget, f"placement uses {len(blue)} blue nodes, budget is {budget}"
    return blue


def assert_solution_consistent(tree: TreeNetwork, solution: Placement) -> None:
    """Per-solution invariants: feasibility and cost consistency.

    * the placement is feasible (``blue ⊆ Λ``, ``|blue| <= budget``),
    * ``predicted_cost`` (the DP optimum ``X_r(1, k)``) equals the cost
      recomputed from the Reduce message counts (Eq. 1),
    * the barrier re-formulation of Lemma 4.2 agrees with Eq. 1.
    """
    assert_placement_feasible(tree, solution.blue_nodes, solution.budget)
    recomputed = utilization_cost(tree, solution.blue_nodes)
    assert costs_close(recomputed, solution.cost), (
        f"solution.cost={solution.cost} but Eq. (1) recomputes {recomputed}"
    )
    assert costs_close(solution.predicted_cost, solution.cost), (
        f"gather predicted {solution.predicted_cost}, achieved {solution.cost} "
        f"(budget {solution.budget}, blue {sorted(map(repr, solution.blue_nodes))})"
    )
    barrier = utilization_cost_barrier(tree, solution.blue_nodes)
    assert costs_close(barrier, solution.cost), (
        f"barrier formulation gives {barrier}, Eq. (1) gives {solution.cost}"
    )


def assert_budget_monotone(costs: Mapping[int, float]) -> None:
    """Optimal cost is non-increasing in the budget (at-most-k semantics)."""
    ordered = sorted(costs)
    for low, high in zip(ordered, ordered[1:]):
        assert costs[high] <= costs[low] + ABS_TOL, (
            f"cost increased with budget: k={low} -> {costs[low]}, "
            f"k={high} -> {costs[high]}"
        )


def assert_cost_sandwich(tree: TreeNetwork, cost: float) -> None:
    """``all_red >= cost`` always, and ``cost >= all_blue`` on positive loads.

    The unrestricted all-blue value lower-bounds every placement only when
    every subtree emits at least one message, i.e. when every leaf carries
    positive load (a zero-load subtree sends nothing under an all-red
    colouring but one message under all-blue); the lower bound is skipped
    otherwise.
    """
    red = all_red_cost(tree)
    assert cost <= red + ABS_TOL, f"optimal cost {cost} exceeds the all-red cost {red}"
    if all(tree.load(leaf) >= 1 for leaf in tree.leaves()):
        blue = all_blue_cost(tree)
        assert cost >= blue - ABS_TOL, (
            f"optimal cost {cost} beats the all-blue lower bound {blue}"
        )


def assert_gather_consistent(tree: TreeNetwork, gathered: GatherResult) -> None:
    """Structural invariants of the gather tables themselves.

    For every node: ``X = min(Y_blue, Y_red)``, ``X`` is non-decreasing in
    the parameter ``l`` (longer paths cost more), and — under at-most-k
    semantics — non-increasing in the budget ``i``.
    """
    for node in tree.switches:
        tables = gathered.tables[node]
        stacked = np.minimum(tables.y_blue, tables.y_red)
        assert np.array_equal(tables.x, stacked), f"X != min(Y_blue, Y_red) at {node!r}"
        lower, upper = tables.x[:-1], tables.x[1:]
        both_finite = np.isfinite(lower) & np.isfinite(upper)
        assert np.all(upper[both_finite] - lower[both_finite] >= -ABS_TOL), (
            f"X not monotone in the parameter l at {node!r}"
        )
        # An infeasible entry (exactly-k) stays infeasible at larger l.
        assert np.all(np.isinf(upper[np.isinf(lower)])), (
            f"X regains feasibility at larger l at {node!r}"
        )
        if not gathered.exact_k:
            assert np.all(np.diff(tables.x, axis=1) <= ABS_TOL), (
                f"X not monotone in the budget at {node!r}"
            )


def assert_tables_equal(a: GatherResult, b: GatherResult) -> None:
    """Bitwise equality of two gather results (tables and breadcrumbs).

    The backends and the reference walk evaluate the same floating-point
    operations in the same order, so their tables must match exactly — not
    just within a tolerance.
    """
    assert a.root == b.root and a.budget == b.budget and a.exact_k == b.exact_k
    assert set(a.tables) == set(b.tables)
    for node, left in a.tables.items():
        right = b.tables[node]
        for attribute in ("x", "y_blue", "y_red", "choice"):
            assert np.array_equal(getattr(left, attribute), getattr(right, attribute)), (
                f"{attribute} tables differ at node {node!r}"
            )
        assert len(left.splits_red) == len(right.splits_red)
        for stage, (sl, sr) in enumerate(zip(left.splits_red, right.splits_red)):
            assert np.array_equal(sl, sr), f"red split {stage} differs at {node!r}"
        for stage, (sl, sr) in enumerate(zip(left.splits_blue, right.splits_blue)):
            assert np.array_equal(sl, sr), f"blue split {stage} differs at {node!r}"


def bruteforce_subset_count(tree: TreeNetwork, budget: int, exact_k: bool = False) -> int:
    """Number of subsets :func:`solve_bruteforce` would enumerate."""
    available = len(tree.available)
    effective = min(int(budget), available)
    sizes = [effective] if exact_k else range(effective + 1)
    return sum(math.comb(available, size) for size in sizes)


def check_instance(
    tree: TreeNetwork,
    budget: int,
    exact_k: bool = False,
    backends: Sequence[Backend] = BACKENDS,
    bruteforce: bool | None = None,
    bruteforce_limit: int = 100_000,
) -> dict[str, Placement]:
    """Full differential verification of one φ-BIC instance.

    Solves on every requested backend and asserts the per-solution
    invariants (:func:`assert_solution_consistent`,
    :func:`assert_cost_sandwich` for at-most-k).  The reference walks are
    the oracle: every backend must trace the blue set that
    :func:`~repro.core.color.soar_color` traces out of its own tables and
    out of :func:`~repro.core.gather.soar_gather`'s, with the identical
    predicted cost and the identical Eq. (1) float of
    :func:`~repro.core.cost.utilization_cost`.  When ``bruteforce`` is
    true, or ``None`` and the instance is small enough, optimality is
    certified against :func:`solve_bruteforce`.

    Returns the solutions keyed by backend name for further inspection.
    """
    reference = soar_gather(tree, budget, exact_k=exact_k)
    reference_blue = soar_color(tree, reference)
    reference_cost = utilization_cost(tree, reference_blue)
    solutions: dict[str, Placement] = {}
    for backend in backends:
        table = Solver(backend=backend, exact_k=exact_k).gather(tree, budget)
        solution = table.place()
        assert_solution_consistent(tree, solution)
        if not exact_k:
            assert_cost_sandwich(tree, solution.cost)
        traced = soar_color(tree, table.result)
        assert traced == solution.blue_nodes, (
            f"the reference trace of the {backend.name!r} tables gives "
            f"{sorted(map(repr, traced))}, the backend traced "
            f"{sorted(map(repr, solution.blue_nodes))}"
        )
        assert solution.blue_nodes == reference_blue, (
            f"backend {backend.name!r} placement differs from the reference: "
            f"{sorted(map(repr, solution.blue_nodes))} vs "
            f"{sorted(map(repr, reference_blue))}"
        )
        assert solution.predicted_cost == reference.cost_for_budget(), (
            f"backend {backend.name!r} predicts {solution.predicted_cost}, "
            f"the reference gather {reference.cost_for_budget()}"
        )
        assert solution.cost == reference_cost, (
            f"backend {backend.name!r} cost {solution.cost} != "
            f"reference cost {reference_cost}"
        )
        solutions[backend.name] = solution

    if bruteforce is None:
        bruteforce = bruteforce_subset_count(tree, budget, exact_k) <= bruteforce_limit
    if bruteforce:
        truth = solve_bruteforce(tree, budget, exact_k=exact_k)
        assert costs_close(truth.cost, reference_cost), (
            f"SOAR found {reference_cost}, brute force found {truth.cost} "
            f"(budget {budget}, exact_k={exact_k})"
        )
    return solutions


def check_budget_sweep(tree: TreeNetwork, max_budget: int) -> dict[int, float]:
    """Solve every budget ``0 .. max_budget`` and assert monotonicity.

    Uses at-most-k semantics (monotonicity does not hold for exactly-k).
    Returns the budget -> cost curve.
    """
    solutions = Solver().sweep(tree, range(max_budget + 1))
    costs = {budget: solution.cost for budget, solution in solutions.items()}
    assert_budget_monotone(costs)
    return costs


__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "assert_budget_monotone",
    "assert_cost_sandwich",
    "assert_gather_consistent",
    "assert_placement_feasible",
    "assert_solution_consistent",
    "assert_tables_equal",
    "bruteforce_subset_count",
    "check_budget_sweep",
    "check_instance",
    "costs_close",
]
