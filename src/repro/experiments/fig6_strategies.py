"""Figure 6: SOAR versus the contending strategies on ``BT(256)``.

For every combination of

* load distribution (uniform, power-law),
* link-rate scheme (constant, linear, exponential),
* budget ``k`` in {1, 2, 4, 8, 16, 32},

the experiment places blue nodes with each strategy (Top, Max, Level, SOAR)
and reports the utilization normalized to the all-red solution, averaged
over ten independently sampled workloads.  The all-blue curve is added as
the reference lower bound.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.strategies import PAPER_STRATEGIES
from repro.core.cost import all_blue_cost, all_red_cost, evaluate_cost
from repro.core.flat import cost_model_for
from repro.core.solver import Solver
from repro.experiments.harness import (
    DISTRIBUTION_NAMES,
    FIG6_BUDGETS,
    RATE_SCHEME_NAMES,
    ExperimentConfig,
    PAPER_CONFIG,
    budgets_for_network,
    build_evaluation_network,
    repetition_seeds,
)
from repro.utils.stats import mean_and_stderr


def run_fig6(
    config: ExperimentConfig = PAPER_CONFIG,
    budgets: Sequence[int] = FIG6_BUDGETS,
    rate_schemes: Sequence[str] = RATE_SCHEME_NAMES,
    distributions: Sequence[str] = DISTRIBUTION_NAMES,
    strategies: dict | None = None,
) -> list[dict]:
    """Run the Figure 6 sweep and return one row per plotted point.

    Each row carries ``distribution``, ``rate_scheme``, ``strategy``, ``k``,
    the mean normalized utilization over the repetitions and its standard
    error — exactly the series of the corresponding sub-plot.
    """
    strategies = dict(strategies or PAPER_STRATEGIES)
    solver = Solver()
    rows: list[dict] = []

    for distribution in distributions:
        for rate_scheme in rate_schemes:
            # normalized[strategy][k] accumulates one value per repetition
            normalized: dict[str, dict[int, list[float]]] = {
                name: {} for name in [*strategies, "All blue"]
            }
            effective_budgets: list[int] = []

            for rng in repetition_seeds(config):
                tree = build_evaluation_network(config, rate_scheme, distribution, rng)
                effective_budgets = budgets_for_network(budgets, tree)
                baseline = all_red_cost(tree)
                blue_reference = all_blue_cost(tree) / baseline if baseline else 0.0

                # One structural cost model evaluates every heuristic
                # placement of this repetition's network.
                model = cost_model_for(tree)
                soar_solutions = solver.sweep(tree, effective_budgets)
                for budget in effective_budgets:
                    for name, strategy in strategies.items():
                        if name == "SOAR":
                            cost = soar_solutions[budget].cost
                        else:
                            cost = evaluate_cost(
                                tree, strategy(tree, budget), model=model
                            )
                        value = cost / baseline if baseline else 0.0
                        normalized[name].setdefault(budget, []).append(value)
                    normalized["All blue"].setdefault(budget, []).append(blue_reference)

            for name, per_budget in normalized.items():
                for budget in effective_budgets:
                    mean, stderr = mean_and_stderr(per_budget[budget])
                    rows.append(
                        {
                            "figure": "fig6",
                            "distribution": distribution,
                            "rate_scheme": rate_scheme,
                            "strategy": name,
                            "k": budget,
                            "normalized_utilization": mean,
                            "stderr": stderr,
                            "repetitions": config.repetitions,
                            "network_size": config.network_size,
                        }
                    )
    return rows
