"""Benchmark regenerating Figure 9 / Section 5.4: SOAR running times.

The absolute seconds differ from the paper's laptop (and this implementation
vectorizes the inner loops with numpy), but the shape must hold: the gather
phase dominates, grows roughly quadratically in ``k`` and near-linearly in
``n``, while the colouring phase is orders of magnitude cheaper.

This file benchmarks the two phases directly with pytest-benchmark (so the
timing statistics come from the benchmark machinery itself) and additionally
regenerates the full Figure 9 grid via the experiment module.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.color import soar_color
from repro.core.engine import BACKENDS, gather
from repro.core.engine_compiled import HAVE_COMPILED
from repro.core.gather import soar_gather
from repro.experiments.fig9_runtime import (
    run_color_comparison,
    run_engine_comparison,
    run_fig9,
)
from repro.experiments.harness import ExperimentConfig
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads

#: The reference gather walk and every backend's gather.
GATHERS = [pytest.param(soar_gather, id="reference")] + [
    pytest.param(functools.partial(gather, backend=backend), id=backend.name)
    for backend in BACKENDS
]
#: The reference colour walk and every backend's trace of one budget.
COLORS = [pytest.param(soar_color, id="reference")] + [
    pytest.param(
        lambda tree, gathered, backend=backend: backend.trace(tree, gathered, [None]),
        id=backend.name,
    )
    for backend in BACKENDS
]


def _network(size: int, seed: int = 2021):
    tree = bt_network(size)
    return tree.with_loads(sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=seed))


@pytest.mark.benchmark(group="fig9 gather phase")
@pytest.mark.parametrize("run_gather", GATHERS)
@pytest.mark.parametrize("size", [256, 512, 1024, 2048])
def test_gather_scaling_in_network_size(benchmark, size, run_gather):
    tree = _network(size)
    benchmark(run_gather, tree, 32)


@pytest.mark.benchmark(group="fig9 gather phase")
@pytest.mark.parametrize("run_gather", GATHERS)
@pytest.mark.parametrize("budget", [4, 16, 64, 128])
def test_gather_scaling_in_budget(benchmark, budget, run_gather):
    tree = _network(1024)
    benchmark(run_gather, tree, budget)


@pytest.mark.benchmark(group="fig9 color phase")
@pytest.mark.parametrize("trace", COLORS)
@pytest.mark.parametrize("size", [256, 1024])
def test_color_phase(benchmark, size, trace):
    tree = _network(size)
    gathered = gather(tree, 32)
    benchmark(trace, tree, gathered)


@pytest.mark.benchmark(group="fig9 color comparison")
def test_color_comparison(benchmark, emit_rows):
    """Every backend's colour trace vs the reference walk on the Figure 9 sizes."""
    config = ExperimentConfig(network_size=256, repetitions=3, seed=2021)
    rows = benchmark.pedantic(
        run_color_comparison,
        kwargs={"sizes": (256, 512, 1024, 2048), "budget": 32, "config": config},
        rounds=1,
        iterations=1,
    )
    emit_rows(rows, "fig9_colors", "Colour traces: backends vs reference (best-of-3)")
    for row in rows:
        # run_color_comparison already asserts identical placements; the
        # numpy trace must never be slower than the per-node walk it
        # replaces, and must beat it clearly at service scale.
        assert row["numpy_speedup"] > 1.0
        if row["network_size"] >= 1024:
            assert row["numpy_speedup"] >= 3.0


@pytest.mark.benchmark(group="fig9 engine comparison")
def test_engine_comparison(benchmark, emit_rows):
    """Every backend's gather vs the reference walk on the Figure 9 sizes."""
    config = ExperimentConfig(network_size=256, repetitions=3, seed=2021)
    rows = benchmark.pedantic(
        run_engine_comparison,
        kwargs={"sizes": (256, 512, 1024, 2048), "budget": 32, "config": config},
        rounds=1,
        iterations=1,
    )
    emit_rows(rows, "fig9_engines", "Gather: backends vs reference (best-of-3)")
    for row in rows:
        # run_engine_comparison already asserts identical costs; the numpy
        # backend must never be slower than the reference it replaces, and
        # the C kernels (when a compiler exists) must beat the numpy
        # kernels they replace.
        assert row["numpy_speedup"] > 1.0
        if HAVE_COMPILED:
            assert row["compiled_speedup"] > row["numpy_speedup"]


@pytest.mark.benchmark(group="fig9 full grid")
def test_fig9_grid(benchmark, emit_rows):
    config = ExperimentConfig(network_size=256, repetitions=2, seed=2021)
    rows = benchmark.pedantic(
        run_fig9,
        kwargs={"sizes": (256, 512, 1024, 2048), "budgets": (4, 8, 16, 32, 64, 128), "config": config},
        rounds=1,
        iterations=1,
    )
    emit_rows(rows, "fig9", "Figure 9: SOAR-Gather / SOAR-Color running time")

    by_pair = {(row["network_size"], row["k"]): row for row in rows}
    # Gather time grows with n and with k.
    assert by_pair[(2048, 128)]["gather_seconds"] > by_pair[(256, 128)]["gather_seconds"]
    assert by_pair[(2048, 128)]["gather_seconds"] > by_pair[(2048, 4)]["gather_seconds"]
    # The colouring phase is at least an order of magnitude cheaper everywhere
    # (the paper reports roughly three orders of magnitude for its
    # unvectorized gather implementation).
    for row in rows:
        assert row["color_seconds"] < row["gather_seconds"] / 10.0
