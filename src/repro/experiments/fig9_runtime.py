"""Figure 9 and Section 5.4: running time of SOAR-Gather and SOAR-Color.

The paper measures the serial running time of the two phases on a laptop
for network sizes 256-2048 and budgets 4-128, observing a quadratic
dependence on ``k``, a near-linear dependence on ``n``, and SOAR-Color being
roughly three orders of magnitude faster than SOAR-Gather.  Absolute numbers
are hardware dependent; the shape is what this experiment (and the matching
pytest benchmark) reproduces.

The three comparisons time the per-node reference walk of each phase
(:func:`~repro.core.gather.soar_gather`, :func:`~repro.core.color.soar_color`,
:func:`~repro.core.cost.utilization_cost`) against every backend of
:data:`repro.core.engine.BACKENDS` on the same instances, and check that
every backend returns the reference's answer bit for bit before its time
is trusted.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.color import blue_set, soar_color
from repro.core.cost import utilization_cost
from repro.core.engine import BACKENDS, DEFAULT_BACKEND, Backend, gather
from repro.core.flat import cost_model_for
from repro.core.gather import GatherResult, soar_gather
from repro.core.solver import Solver
from repro.core.tree import TreeNetwork
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
) -> list[dict]:
    """Time SOAR-Gather and SOAR-Color for every (network size, budget) pair.

    Returns one row per pair with the mean wall-clock seconds of each phase
    over ``config.repetitions`` runs (each on a freshly sampled power-law
    workload), plus the color/gather runtime ratio the paper highlights.
    Both phases run on :data:`~repro.core.engine.DEFAULT_BACKEND`; the
    colour phase is the backend's trace of one budget, which is what the
    service's warm path consists of.  The gather clock covers the gather
    alone: each tree's flat layout is built before it starts.
    """
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
                # Structure set-up is not gather time: build the flat layout
                # (memoized on the tree) before the clock starts.
                tree.flat_layout()

                start = time.perf_counter()
                gathered = gather(tree, budget)
                gather_times.append(time.perf_counter() - start)

                start = time.perf_counter()
                DEFAULT_BACKEND.trace(tree, gathered, [None])
                color_times.append(time.perf_counter() - start)

            gather_mean, gather_err = mean_and_stderr(gather_times)
            color_mean, color_err = mean_and_stderr(color_times)
            rows.append(
                {
                    "figure": "fig9",
                    "network_size": size,
                    "k": budget,
                    "backend": DEFAULT_BACKEND.name,
                    "gather_seconds": gather_mean,
                    "gather_stderr": gather_err,
                    "color_seconds": color_mean,
                    "color_stderr": color_err,
                    "color_to_gather_ratio": (color_mean / gather_mean) if gather_mean else 0.0,
                    "repetitions": config.repetitions,
                }
            )
    return rows


def _comparison_network(size: int, config: ExperimentConfig) -> TreeNetwork:
    """``BT(size)`` with power-law leaf loads drawn from ``config.seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    tree = bt_network(size)
    return tree.with_loads(sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=rng))


def _compare(
    figure: str,
    what: str,
    size: int,
    effective: int,
    config: ExperimentConfig,
    runs: dict[str, Callable[[], object]],
) -> tuple[dict, object]:
    """Time every entry of ``runs`` best-of-``config.repetitions``.

    Best-of is the standard way to compare implementations because it
    suppresses scheduler noise.  Every entry must return exactly the first
    entry's (the reference's) value.  Returns the row, with
    ``<name>_seconds`` and ``<name>_speedup`` over the reference per
    entry, and the reference's value.
    """
    best: dict[str, float] = {}
    values: dict[str, object] = {}
    for name, run in runs.items():
        times = []
        for _ in range(max(1, config.repetitions)):
            start = time.perf_counter()
            values[name] = run()
            times.append(time.perf_counter() - start)
        best[name] = min(times)
    baseline = next(iter(runs))
    for name, value in values.items():
        if value != values[baseline]:
            raise AssertionError(
                f"{name!r} {what} {value!r} differs from {baseline!r} "
                f"{values[baseline]!r} on BT({size})"
            )
    row = {
        "figure": figure,
        "network_size": size,
        "k": effective,
        "repetitions": config.repetitions,
    }
    for name in runs:
        row[f"{name}_seconds"] = best[name]
        speedup = best[baseline] / best[name] if best[name] else float("inf")
        row[f"{name}_speedup"] = speedup
    return row, values[baseline]


def run_engine_comparison(
    sizes: Sequence[int] = FIG9_SIZES,
    budget: int = 32,
    config: ExperimentConfig = PAPER_CONFIG,
) -> list[dict]:
    """Time the reference gather and every backend's on the same instances.

    One row per network size with, for the reference walk and each
    backend, the *best* wall-clock gather time over ``config.repetitions``
    runs and the speedup relative to the reference.  Every backend is
    verified to report the reference's optimal cost.
    """
    rows: list[dict] = []
    for size in sizes:
        tree = _comparison_network(size, config)
        effective = min(budget, len(tree.available))
        runs = {"reference": lambda: soar_gather(tree, effective).optimal_cost}
        for backend in BACKENDS:
            runs[backend.name] = lambda backend=backend: gather(
                tree, effective, backend=backend
            ).optimal_cost
        row, cost = _compare("fig9-engines", "cost", size, effective, config, runs)
        rows.append({**row, "optimal_cost": cost})
    return rows


def run_color_comparison(
    sizes: Sequence[int] = FIG9_SIZES,
    budget: int = 32,
    config: ExperimentConfig = PAPER_CONFIG,
) -> list[dict]:
    """Time the reference colour trace and every backend's on the same tables.

    The colour-phase counterpart of :func:`run_engine_comparison`: one row
    per network size with the best wall-clock trace time of one budget
    and the speedup over the per-node :func:`~repro.core.color.soar_color`.
    Every backend is verified to trace the identical blue set — the colour
    trace is most of a warm table hit in the placement service.
    """
    rows: list[dict] = []
    for size in sizes:
        tree = _comparison_network(size, config)
        effective = min(budget, len(tree.available))
        gathered = gather(tree, effective)
        runs = {"reference": lambda: soar_color(tree, gathered)}
        for backend in BACKENDS:
            runs[backend.name] = lambda backend=backend: _traced_blue(
                backend, tree, gathered
            )
        row, blue = _compare("fig9-colors", "placement", size, effective, config, runs)
        rows.append({**row, "blue_nodes": len(blue)})
    return rows


def _traced_blue(backend: Backend, tree: TreeNetwork, gathered: GatherResult) -> frozenset:
    """The blue set ``backend`` traces for the tables' full budget."""
    flat, masks = backend.trace(tree, gathered, [None])
    return blue_set(flat.order, masks[0])


def run_cost_comparison(
    sizes: Sequence[int] = FIG9_SIZES,
    budget: int = 32,
    config: ExperimentConfig = PAPER_CONFIG,
) -> list[dict]:
    """Time the reference Eq. (1) and every backend's on the same placement.

    The cost-phase counterpart of :func:`run_color_comparison`: one row
    per network size with the best wall-clock evaluation time and the
    speedup over the per-node :func:`~repro.core.cost.utilization_cost`.
    The backends run with a prebuilt
    :class:`~repro.core.flat.FlatCostModel`, matching the warm-hit path
    where a gather artifact already carries the metadata.  Every backend
    is verified to return the *identical* float — the cost recompute is
    the other part of a warm table hit in the placement service.
    """
    rows: list[dict] = []
    for size in sizes:
        tree = _comparison_network(size, config)
        effective = min(budget, len(tree.available))
        blue = Solver().solve(tree, effective).blue_nodes
        model = cost_model_for(tree)
        mask = np.zeros((1, len(model.order)), dtype=np.uint8)
        mask[0, [model.index[node] for node in blue]] = 1
        runs = {"reference": lambda: utilization_cost(tree, blue)}
        for backend in BACKENDS:
            runs[backend.name] = lambda backend=backend: float(
                backend.costs(tree, mask, model)[0]
            )
        row, value = _compare("fig9-costs", "value", size, effective, config, runs)
        rows.append({**row, "utilization": value, "blue_nodes": len(blue)})
    return rows
