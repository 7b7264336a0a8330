"""Distributing a shared aggregation budget across multiple workloads.

Section 8 of the paper leaves open how a provider should split its overall
in-network computing capacity across tenants: "every workload might be
serviced by a distinct number of aggregation switches (i.e., there need not
be a uniform k for all workloads)".  This module implements that extension
for the *offline* variant, where the set of workloads is known up front and
the provider controls the total number of aggregation assignments.

Because a single SOAR-Gather run yields the optimal cost of a workload for
*every* budget ``0..K`` at once (the DP table carries one column per
budget), the per-workload cost curves are cheap to obtain.  Splitting a
total budget ``K`` across ``W`` workloads to minimize the summed cost is
then a classic resource-allocation dynamic program over those curves, which
is optimal regardless of the curves' shape (they are non-increasing but not
necessarily convex).

The capacity constraint of Section 5.2 (a switch can serve at most ``a(s)``
workloads) is *not* enforced here — this is the complementary knob: how much
budget each workload deserves, before the online placement decides which
switches implement it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.solver import Solver
from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import InvalidBudgetError


@dataclass(frozen=True)
class BudgetAllocation:
    """Result of splitting a shared budget across workloads.

    Attributes
    ----------
    budgets:
        Budget assigned to each workload, in input order.
    total_cost:
        Summed optimal utilization across the workloads under these budgets.
    uniform_cost:
        Summed utilization when the same total budget is split evenly
        (rounded down, remainder given to the first workloads) — the naive
        policy the optimal split is compared against.
    cost_curves:
        Per-workload optimal cost for every budget ``0..K`` (one row per
        workload); useful for inspection and plotting.
    """

    budgets: tuple[int, ...]
    total_cost: float
    uniform_cost: float
    cost_curves: tuple[tuple[float, ...], ...]

    @property
    def improvement_over_uniform(self) -> float:
        """Fractional saving of the optimal split relative to the even split."""
        if self.uniform_cost == 0.0:
            return 0.0
        return 1.0 - self.total_cost / self.uniform_cost


def workload_cost_curve(
    tree: TreeNetwork,
    loads: Mapping[NodeId, int],
    max_budget: int,
) -> list[float]:
    """Optimal utilization of one workload for every budget ``0..max_budget``."""
    if max_budget < 0:
        raise InvalidBudgetError(f"budget must be non-negative, got {max_budget}")
    workload_tree = tree.with_loads(loads)
    table = Solver().gather(workload_tree, max_budget)
    curve = [table.cost(budget) for budget in range(table.budget + 1)]
    # If the budget was clamped (more budget than available switches), the
    # curve is flat beyond the clamp point.
    while len(curve) < max_budget + 1:
        curve.append(curve[-1])
    return curve


def allocate_budgets(
    tree: TreeNetwork,
    workloads: Sequence[Mapping[NodeId, int]],
    total_budget: int,
) -> BudgetAllocation:
    """Optimally split ``total_budget`` aggregation switches across workloads.

    Parameters
    ----------
    tree:
        The shared network (topology, rates, availability).
    workloads:
        The load function of each workload.
    total_budget:
        Total number of aggregation-switch assignments available across all
        workloads (a switch used by two workloads counts twice, mirroring
        the capacity accounting of Section 5.2).

    Returns
    -------
    BudgetAllocation
        The optimal per-workload budgets, the resulting total cost, and the
        cost of the naive even split for comparison.
    """
    if total_budget < 0:
        raise InvalidBudgetError(f"total budget must be non-negative, got {total_budget}")
    if not workloads:
        return BudgetAllocation(budgets=(), total_cost=0.0, uniform_cost=0.0, cost_curves=())

    num_workloads = len(workloads)
    per_workload_cap = min(total_budget, len(tree.available))
    curves = np.array(
        [workload_cost_curve(tree, loads, per_workload_cap) for loads in workloads]
    )

    # dp[b] = minimum summed cost using exactly the first w workloads and a
    # total of b budget units; choice[w][b] = budget given to workload w.
    budget_axis = total_budget + 1
    dp = np.full(budget_axis, np.inf)
    dp[0] = 0.0
    choices: list[np.ndarray] = []
    for w in range(num_workloads):
        new_dp = np.full(budget_axis, np.inf)
        choice = np.zeros(budget_axis, dtype=np.int64)
        curve = curves[w]
        for spent in range(budget_axis):
            limit = min(spent, per_workload_cap)
            options = dp[spent - limit : spent + 1][::-1] + curve[: limit + 1]
            best = int(np.argmin(options))
            new_dp[spent] = options[best]
            choice[spent] = best
        dp = new_dp
        choices.append(choice)

    # The cost curves are non-increasing, so spending the full budget is
    # always (weakly) optimal; trace back from total_budget.
    remaining = int(np.argmin(dp))
    total_cost = float(dp[remaining])
    budgets = [0] * num_workloads
    for w in range(num_workloads - 1, -1, -1):
        budgets[w] = int(choices[w][remaining])
        remaining -= budgets[w]

    # Naive even split for comparison.
    base, extra = divmod(total_budget, num_workloads)
    uniform_cost = 0.0
    for index in range(num_workloads):
        share = min(base + (1 if index < extra else 0), per_workload_cap)
        uniform_cost += float(curves[index][share])

    return BudgetAllocation(
        budgets=tuple(budgets),
        total_cost=total_cost,
        uniform_cost=uniform_cost,
        cost_curves=tuple(tuple(map(float, curve)) for curve in curves),
    )
