"""Appendix A (Figure 10): scaling laws of SOAR on larger binary trees.

Two perspectives on how the benefit of bounded in-network aggregation scales
with the network size ``n`` (power-law loads, constant rates):

* **Fig. 10a** — the normalized utilization when the budget grows as
  ``k = 1% of n``, ``k = log2(n)`` or ``k = sqrt(n)``, for
  ``n = 256 .. 4096``;
* **Fig. 10b** — the *fraction* of switches that must be blue to reach a
  30% / 50% / 70% cost reduction relative to all-red.

Both reuse a single SOAR-Gather run per sampled network: the DP tables carry
every budget column, so reading off a sweep or searching for the smallest
sufficient budget costs nothing extra.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.cost import all_blue_cost, all_red_cost
from repro.core.solver import Solver
from repro.experiments.harness import ExperimentConfig, PAPER_CONFIG
from repro.topology.binary_tree import bt_network
from repro.utils.stats import mean_and_stderr
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads

#: Network sizes of Figure 10.
FIG10_SIZES: tuple[int, ...] = (256, 512, 1024, 2048, 4096)
#: Cost-reduction targets of Figure 10b.
FIG10_TARGETS: tuple[float, ...] = (0.3, 0.5, 0.7)

#: Budget rules of Figure 10a, mapping a network size to a budget.
BUDGET_RULES: dict[str, Callable[[int], int]] = {
    "1%": lambda n: max(1, n // 100),
    "log(n)": lambda n: max(1, round(math.log2(n))),
    "sqrt(n)": lambda n: max(1, round(math.sqrt(n))),
}


def _sampled_tree(size: int, rng: np.random.Generator):
    """One power-law-loaded ``BT(size)`` sample with constant rates."""
    tree = bt_network(size)
    return tree.with_loads(sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=rng))


def run_fig10_utilization(
    sizes: Sequence[int] = FIG10_SIZES,
    budget_rules: dict[str, Callable[[int], int]] | None = None,
    config: ExperimentConfig = PAPER_CONFIG,
) -> list[dict]:
    """Figure 10a: normalized utilization for size-dependent budget rules."""
    budget_rules = dict(budget_rules or BUDGET_RULES)
    rows: list[dict] = []
    seeds = np.random.SeedSequence(config.seed).spawn(config.repetitions)

    for size in sizes:
        budgets = {name: rule(size) for name, rule in budget_rules.items()}
        max_budget = max(budgets.values())
        per_rule: dict[str, list[float]] = {name: [] for name in budget_rules}
        all_blue_values: list[float] = []

        for seed in seeds:
            rng = np.random.default_rng(seed)
            tree = _sampled_tree(size, rng)
            baseline = all_red_cost(tree)
            gathered = Solver().gather(tree, max_budget)
            for name, budget in budgets.items():
                cost = gathered.cost(budget)
                per_rule[name].append(cost / baseline if baseline else 0.0)
            all_blue_values.append(all_blue_cost(tree) / baseline if baseline else 0.0)

        for name, values in per_rule.items():
            mean, stderr = mean_and_stderr(values)
            rows.append(
                {
                    "figure": "fig10a",
                    "network_size": size,
                    "budget_rule": name,
                    "k": budgets[name],
                    "normalized_utilization": mean,
                    "stderr": stderr,
                    "repetitions": config.repetitions,
                }
            )
        mean, stderr = mean_and_stderr(all_blue_values)
        rows.append(
            {
                "figure": "fig10a",
                "network_size": size,
                "budget_rule": "all-blue",
                "k": size - 1,
                "normalized_utilization": mean,
                "stderr": stderr,
                "repetitions": config.repetitions,
            }
        )
    return rows


def run_fig10_required_fraction(
    sizes: Sequence[int] = FIG10_SIZES,
    targets: Sequence[float] = FIG10_TARGETS,
    config: ExperimentConfig = PAPER_CONFIG,
    max_fraction: float = 0.1,
) -> list[dict]:
    """Figure 10b: % of switches that must be blue for a target cost reduction.

    ``max_fraction`` bounds the searched budget (the paper's targets are all
    reachable well below 5% of the switches); if a target cannot be met
    within the bound the row reports ``NaN``.
    """
    rows: list[dict] = []
    seeds = np.random.SeedSequence(config.seed).spawn(config.repetitions)

    for size in sizes:
        search_budget = max(1, int(math.ceil(max_fraction * size)))
        per_target: dict[float, list[float]] = {target: [] for target in targets}

        for seed in seeds:
            rng = np.random.default_rng(seed)
            tree = _sampled_tree(size, rng)
            baseline = all_red_cost(tree)
            gathered = Solver().gather(
                tree, min(search_budget, tree.num_switches)
            )
            costs = [gathered.cost(k) for k in range(gathered.budget + 1)]
            for target in targets:
                threshold = (1.0 - target) * baseline
                needed = next(
                    (k for k, cost in enumerate(costs) if cost <= threshold + 1e-9), None
                )
                if needed is None:
                    per_target[target].append(float("nan"))
                else:
                    per_target[target].append(100.0 * needed / tree.num_switches)

        for target in targets:
            values = [v for v in per_target[target] if not math.isnan(v)]
            mean, stderr = mean_and_stderr(values)
            rows.append(
                {
                    "figure": "fig10b",
                    "network_size": size,
                    "target_reduction": target,
                    "percent_blue_nodes": mean if values else float("nan"),
                    "stderr": stderr,
                    "achieved_in_all_repetitions": len(values) == config.repetitions,
                    "repetitions": config.repetitions,
                }
            )
    return rows
