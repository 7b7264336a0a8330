"""Figure 8: the word-count (WC) and parameter-server (PS) use cases.

Constant-rate ``BT(256)``, budgets up to 64, uniform and power-law loads.
Three panels:

* **Fig. 8a** — normalized utilization of SOAR's placement (identical for
  WC and PS because the utilization model is application-agnostic),
* **Fig. 8b** — byte complexity normalized to the all-red solution,
* **Fig. 8c** — byte complexity normalized to the all-blue solution.

The byte complexity uses the analytic expected-size models of
:mod:`repro.apps.bytes_model`; the sampled content-carrying Reduce agrees
with it (asserted by the test-suite) but would be needlessly slow for the
full sweep.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.apps.bytes_model import expected_byte_complexity
from repro.apps.paramserver import ParameterServerApplication
from repro.apps.wordcount import WordCountApplication
from repro.core.cost import all_red_cost
from repro.core.solver import Solver
from repro.experiments.harness import (
    DISTRIBUTION_NAMES,
    ExperimentConfig,
    FIG8_BUDGETS,
    PAPER_CONFIG,
    budgets_for_network,
    build_evaluation_network,
    repetition_seeds,
)
from repro.utils.stats import mean_and_stderr


def default_applications() -> dict[str, object]:
    """The two case-study applications with their paper-inspired parameters."""
    return {
        "WC": WordCountApplication(),
        "PS": ParameterServerApplication(),
    }


def run_fig8(
    config: ExperimentConfig = PAPER_CONFIG,
    budgets: Sequence[int] = FIG8_BUDGETS,
    distributions: Sequence[str] = DISTRIBUTION_NAMES,
    applications: dict | None = None,
    rate_scheme: str = "constant",
) -> list[dict]:
    """Run the Figure 8 sweep and return one row per (application, distribution, k).

    Each row carries the normalized utilization (Fig. 8a), the byte
    complexity normalized to all-red (Fig. 8b) and to all-blue (Fig. 8c),
    averaged over the configured repetitions.
    """
    applications = dict(applications or default_applications())
    solver = Solver()
    rows: list[dict] = []

    for app_name, application in applications.items():
        for distribution in distributions:
            utilization: dict[int, list[float]] = {}
            bytes_vs_red: dict[int, list[float]] = {}
            bytes_vs_blue: dict[int, list[float]] = {}
            effective_budgets: list[int] = []

            for rng in repetition_seeds(config):
                tree = build_evaluation_network(config, rate_scheme, distribution, rng)
                effective_budgets = budgets_for_network(budgets, tree)
                baseline_utilization = all_red_cost(tree)
                all_red_bytes = expected_byte_complexity(tree, frozenset(), application)
                all_blue_bytes = expected_byte_complexity(
                    tree, frozenset(tree.switches), application
                )

                solutions = solver.sweep(tree, effective_budgets)
                for budget in effective_budgets:
                    solution = solutions[budget]
                    placement_bytes = expected_byte_complexity(
                        tree, solution.blue_nodes, application
                    )
                    utilization.setdefault(budget, []).append(
                        solution.cost / baseline_utilization if baseline_utilization else 0.0
                    )
                    bytes_vs_red.setdefault(budget, []).append(
                        placement_bytes / all_red_bytes if all_red_bytes else 0.0
                    )
                    bytes_vs_blue.setdefault(budget, []).append(
                        placement_bytes / all_blue_bytes if all_blue_bytes else 0.0
                    )

            for budget in effective_budgets:
                util_mean, util_err = mean_and_stderr(utilization[budget])
                red_mean, red_err = mean_and_stderr(bytes_vs_red[budget])
                blue_mean, blue_err = mean_and_stderr(bytes_vs_blue[budget])
                rows.append(
                    {
                        "figure": "fig8",
                        "application": app_name,
                        "distribution": distribution,
                        "k": budget,
                        "normalized_utilization": util_mean,
                        "normalized_utilization_stderr": util_err,
                        "bytes_vs_all_red": red_mean,
                        "bytes_vs_all_red_stderr": red_err,
                        "bytes_vs_all_blue": blue_mean,
                        "bytes_vs_all_blue_stderr": blue_err,
                        "network_size": config.network_size,
                        "repetitions": config.repetitions,
                    }
                )
    return rows
