"""Appendix B (Figure 11): SOAR on scale-free (preferential-attachment) trees.

Two parts:

* a qualitative ``SF(128)`` example comparing the Max(-degree) heuristic to
  SOAR (the paper's sample saves roughly 70% of the messages: 621 vs 182 —
  absolute numbers depend on the random tree, the ratio is the point),
* the scaling study: normalized utilization on ``SF(n)`` for the same
  size-dependent budget rules as Figure 10a, with unit load on every switch.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.baselines.strategies import max_degree_strategy
from repro.core.cost import all_blue_cost, all_red_cost, evaluate_cost
from repro.core.engine import gather
from repro.core.flat import cost_model_for
from repro.core.solver import Solver
from repro.experiments.fig10_scaling import BUDGET_RULES
from repro.experiments.harness import ExperimentConfig, PAPER_CONFIG
from repro.topology.scale_free import degree_sequence, sf_network
from repro.utils.stats import mean_and_stderr

#: Network sizes of Figure 11c.
FIG11_SIZES: tuple[int, ...] = (256, 512, 1024, 2048, 4096)


def run_fig11_example(
    size: int = 128,
    budget: int = 4,
    seed: int = 2021,
    samples: int = 1,
) -> list[dict]:
    """Figures 11a/11b: Max(degree) versus SOAR on ``SF(size)`` samples.

    The paper shows a single hand-picked sample (Max = 621 vs SOAR = 182,
    roughly a 70% saving).  The gap between the degree heuristic and the
    optimum varies a lot across random preferential-attachment samples, so
    besides the single-sample rows this experiment can average over
    ``samples`` independent trees; the robust claims are that SOAR never
    loses to Max(degree) and that a handful of blue nodes removes a large
    share of the all-red utilization.
    """
    seeds = [seed + offset for offset in range(max(1, samples))]
    all_red_values: list[float] = []
    max_values: list[float] = []
    soar_values: list[float] = []
    first_degrees = ""
    for sample_seed in seeds:
        tree = sf_network(size, rng=sample_seed)
        if not first_degrees:
            first_degrees = ",".join(map(str, degree_sequence(tree)[:9]))
        model = cost_model_for(tree)
        all_red_values.append(
            evaluate_cost(tree, frozenset(), validate=False, model=model)
        )
        max_values.append(
            evaluate_cost(tree, max_degree_strategy(tree, budget), model=model)
        )
        soar_values.append(Solver().solve(tree, budget).cost)

    mean_all_red = sum(all_red_values) / len(all_red_values)
    mean_max = sum(max_values) / len(max_values)
    mean_soar = sum(soar_values) / len(soar_values)

    def row(strategy: str, utilization: float, **extra) -> dict:
        return {
            "figure": "fig11ab",
            "strategy": strategy,
            "network_size": size,
            "k": budget,
            "utilization": utilization,
            "samples": len(seeds),
            "top_degrees": extra.get("top_degrees", ""),
        }

    return [
        row("All red", mean_all_red),
        row("Max(degree)", mean_max, top_degrees=first_degrees),
        row("SOAR", mean_soar, top_degrees=first_degrees),
        row("saving vs Max", 1.0 - (mean_soar / mean_max if mean_max else 0.0)),
        row("saving vs all-red", 1.0 - (mean_soar / mean_all_red if mean_all_red else 0.0)),
    ]


def run_fig11_scaling(
    sizes: Sequence[int] = FIG11_SIZES,
    budget_rules: dict[str, Callable[[int], int]] | None = None,
    config: ExperimentConfig = PAPER_CONFIG,
) -> list[dict]:
    """Figure 11c: normalized utilization on ``SF(n)`` for size-dependent budgets."""
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
            tree = sf_network(size, rng=rng)
            baseline = all_red_cost(tree)
            gathered = gather(tree, max_budget)
            for name, budget in budgets.items():
                cost = gathered.cost_for_budget(budget)
                per_rule[name].append(cost / baseline if baseline else 0.0)
            all_blue_values.append(all_blue_cost(tree) / baseline if baseline else 0.0)

        for name, values in per_rule.items():
            mean, stderr = mean_and_stderr(values)
            rows.append(
                {
                    "figure": "fig11c",
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
                "figure": "fig11c",
                "network_size": size,
                "budget_rule": "all-blue",
                "k": size - 1,
                "normalized_utilization": mean,
                "stderr": stderr,
                "repetitions": config.repetitions,
            }
        )
    return rows


def isqrt_budget(size: int) -> int:
    """Convenience ``sqrt(n)`` budget rule (exposed for ablation benches)."""
    return max(1, int(math.isqrt(size)))
