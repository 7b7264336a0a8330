"""Figure 9 and Section 5.4: running time of SOAR-Gather and SOAR-Color.

The paper measures the serial running time of the two phases on a laptop
for network sizes 256-2048 and budgets 4-128, observing a quadratic
dependence on ``k``, a near-linear dependence on ``n``, and SOAR-Color being
roughly three orders of magnitude faster than SOAR-Gather.  Absolute numbers
are hardware dependent; the shape is what this experiment (and the matching
pytest benchmark) reproduces.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.color import (
    BATCHED_COLOR,
    COLOR_KERNELS,
    COMPILED_COLOR,
    REFERENCE_COLOR,
    trace_color,
)
from repro.core.cost import (
    COMPILED_COST,
    COST_KERNELS,
    FLAT_COST,
    REFERENCE_COST,
    evaluate_cost,
)
from repro.core.engine import ENGINES, FLAT_ENGINE, REFERENCE_ENGINE, gather
from repro.core.flat import cost_model_for
from repro.core.solver import Solver
from repro.experiments.harness import ExperimentConfig, PAPER_CONFIG
from repro.topology.binary_tree import bt_network
from repro.utils.stats import mean_and_stderr
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads

#: Network sizes of Figure 9 (``BT(n)``, n counting the destination).
FIG9_SIZES: tuple[int, ...] = (256, 512, 1024, 2048)
#: Budgets of Figure 9.
FIG9_BUDGETS: tuple[int, ...] = (4, 8, 16, 32, 64, 128)


def run_fig9(
    sizes: Sequence[int] = FIG9_SIZES,
    budgets: Sequence[int] = FIG9_BUDGETS,
    config: ExperimentConfig = PAPER_CONFIG,
    color: str | None = None,
) -> list[dict]:
    """Time SOAR-Gather and SOAR-Color for every (network size, budget) pair.

    Returns one row per pair with the mean wall-clock seconds of each phase
    over ``config.repetitions`` runs (each on a freshly sampled power-law
    workload), plus the color/gather runtime ratio the paper highlights.
    The gather engine is taken from ``config.engine``; ``color`` selects
    the colour kernel (``config.color``, ``"compiled"`` by default — the
    phase the service's warm path consists of).
    """
    color = color or config.color
    distribution = PowerLawLoadDistribution()
    rows: list[dict] = []
    seeds = np.random.SeedSequence(config.seed).spawn(config.repetitions)

    for size in sizes:
        for budget in budgets:
            gather_times: list[float] = []
            color_times: list[float] = []
            for seed in seeds:
                rng = np.random.default_rng(seed)
                tree = bt_network(size)
                tree = tree.with_loads(sample_leaf_loads(tree, distribution, rng=rng))

                start = time.perf_counter()
                gathered = gather(tree, budget, engine=config.engine)
                gather_times.append(time.perf_counter() - start)

                start = time.perf_counter()
                trace_color(tree, gathered, color=color)
                color_times.append(time.perf_counter() - start)

            gather_mean, gather_err = mean_and_stderr(gather_times)
            color_mean, color_err = mean_and_stderr(color_times)
            rows.append(
                {
                    "figure": "fig9",
                    "network_size": size,
                    "k": budget,
                    "engine": config.engine,
                    "color": color,
                    "gather_seconds": gather_mean,
                    "gather_stderr": gather_err,
                    "color_seconds": color_mean,
                    "color_stderr": color_err,
                    "color_to_gather_ratio": (color_mean / gather_mean) if gather_mean else 0.0,
                    "repetitions": config.repetitions,
                }
            )
    return rows


def run_engine_comparison(
    sizes: Sequence[int] = FIG9_SIZES,
    budget: int = 32,
    config: ExperimentConfig = PAPER_CONFIG,
    engines: Sequence[str] = (REFERENCE_ENGINE, FLAT_ENGINE),
) -> list[dict]:
    """Time every gather engine on the same instances and report speedups.

    One row per network size with, for each engine, the *best* wall-clock
    gather time over ``config.repetitions`` runs (best-of is the standard
    way to compare implementations because it suppresses scheduler noise),
    plus the speedup of each engine relative to the first one listed
    (the reference engine by default).  Every engine is verified to report
    the same optimal cost before its time is trusted.
    """
    distribution = PowerLawLoadDistribution()
    rows: list[dict] = []

    for size in sizes:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        tree = bt_network(size)
        tree = tree.with_loads(sample_leaf_loads(tree, distribution, rng=rng))
        effective = min(budget, len(tree.available))

        best: dict[str, float] = {}
        costs: dict[str, float] = {}
        for engine in engines:
            implementation = ENGINES[engine]
            times = []
            for _ in range(max(1, config.repetitions)):
                start = time.perf_counter()
                gathered = implementation(tree, effective)
                times.append(time.perf_counter() - start)
            best[engine] = min(times)
            costs[engine] = gathered.optimal_cost

        baseline_engine = engines[0]
        for engine in engines:
            if costs[engine] != costs[baseline_engine]:
                raise AssertionError(
                    f"engine {engine!r} cost {costs[engine]} differs from "
                    f"{baseline_engine!r} cost {costs[baseline_engine]} on BT({size})"
                )
        row = {
            "figure": "fig9-engines",
            "network_size": size,
            "k": effective,
            "optimal_cost": costs[baseline_engine],
            "repetitions": config.repetitions,
        }
        for engine in engines:
            row[f"{engine}_seconds"] = best[engine]
            row[f"{engine}_speedup"] = (
                best[baseline_engine] / best[engine] if best[engine] else float("inf")
            )
        rows.append(row)
    return rows


def run_color_comparison(
    sizes: Sequence[int] = FIG9_SIZES,
    budget: int = 32,
    config: ExperimentConfig = PAPER_CONFIG,
    colors: Sequence[str] = (REFERENCE_COLOR, BATCHED_COLOR, COMPILED_COLOR),
) -> list[dict]:
    """Time every colour kernel tracing the same gather tables.

    The colour-phase counterpart of :func:`run_engine_comparison`: one row
    per network size with, for each kernel, the best wall-clock trace time
    of one budget over ``config.repetitions`` runs and the speedup relative
    to the first kernel listed (the reference trace by default).  Every
    kernel is verified to produce the identical blue set before its time is
    trusted — the colour trace is most of a warm table hit in the placement
    service, so this table is the measured justification for the numpy
    ``batched`` kernel and the default C ``compiled`` one (the batched
    kernel again when the C backend did not build).
    """
    distribution = PowerLawLoadDistribution()
    rows: list[dict] = []

    for size in sizes:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        tree = bt_network(size)
        tree = tree.with_loads(sample_leaf_loads(tree, distribution, rng=rng))
        effective = min(budget, len(tree.available))
        gathered = gather(tree, effective, engine=config.engine)

        best: dict[str, float] = {}
        placements: dict[str, frozenset] = {}
        for color in colors:
            kernel = COLOR_KERNELS[color]
            times = []
            for _ in range(max(1, config.repetitions)):
                start = time.perf_counter()
                blue = kernel(tree, gathered)
                times.append(time.perf_counter() - start)
            best[color] = min(times)
            placements[color] = blue

        baseline_color = colors[0]
        for color in colors:
            if placements[color] != placements[baseline_color]:
                raise AssertionError(
                    f"colour kernel {color!r} placement differs from "
                    f"{baseline_color!r} on BT({size})"
                )
        row = {
            "figure": "fig9-colors",
            "network_size": size,
            "k": effective,
            "engine": config.engine,
            "blue_nodes": len(placements[baseline_color]),
            "repetitions": config.repetitions,
        }
        for color in colors:
            row[f"{color}_seconds"] = best[color]
            row[f"{color}_speedup"] = (
                best[baseline_color] / best[color] if best[color] else float("inf")
            )
        rows.append(row)
    return rows


def run_cost_comparison(
    sizes: Sequence[int] = FIG9_SIZES,
    budget: int = 32,
    config: ExperimentConfig = PAPER_CONFIG,
    costs: Sequence[str] = (REFERENCE_COST, FLAT_COST, COMPILED_COST),
) -> list[dict]:
    """Time every cost kernel evaluating the same placement.

    The cost-phase counterpart of :func:`run_color_comparison`: one row
    per network size with, for each kernel of
    :data:`repro.core.cost.COST_KERNELS`, the best wall-clock Eq. (1)
    evaluation time over ``config.repetitions`` runs and the speedup
    relative to the first kernel listed (the per-node reference walk by
    default).  The flat and compiled kernels run with a prebuilt
    :class:`~repro.core.flat.FlatCostModel`, matching the warm-hit path
    where a gather artifact already carries the metadata.  Every kernel
    is verified to return the *identical* float before its time is
    trusted — the cost recompute is the other part of a warm table hit in
    the placement service, so this table is the measured justification
    for the numpy ``flat`` kernel and the default C ``compiled`` one.
    """
    distribution = PowerLawLoadDistribution()
    rows: list[dict] = []

    for size in sizes:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        tree = bt_network(size)
        tree = tree.with_loads(sample_leaf_loads(tree, distribution, rng=rng))
        effective = min(budget, len(tree.available))
        blue = Solver(engine=config.engine, color=config.color).solve(
            tree, effective
        ).blue_nodes
        model = cost_model_for(tree)

        best: dict[str, float] = {}
        values: dict[str, float] = {}
        for cost in costs:
            if cost not in COST_KERNELS:
                raise KeyError(
                    f"unknown cost kernel {cost!r}; expected one of {sorted(COST_KERNELS)}"
                )
            times = []
            for _ in range(max(1, config.repetitions)):
                start = time.perf_counter()
                value = evaluate_cost(tree, blue, cost=cost, model=model)
                times.append(time.perf_counter() - start)
            best[cost] = min(times)
            values[cost] = value

        baseline_cost = costs[0]
        for cost in costs:
            if values[cost] != values[baseline_cost]:
                raise AssertionError(
                    f"cost kernel {cost!r} value {values[cost]} differs from "
                    f"{baseline_cost!r} value {values[baseline_cost]} on BT({size})"
                )
        row = {
            "figure": "fig9-costs",
            "network_size": size,
            "k": effective,
            "engine": config.engine,
            "utilization": values[baseline_cost],
            "blue_nodes": len(blue),
            "repetitions": config.repetitions,
        }
        for cost in costs:
            row[f"{cost}_seconds"] = best[cost]
            row[f"{cost}_speedup"] = (
                best[baseline_cost] / best[cost] if best[cost] else float("inf")
            )
        rows.append(row)
    return rows
