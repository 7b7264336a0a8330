"""Shared infrastructure for the per-figure experiment modules.

Every experiment module exposes one or more ``run_*`` functions that return
a list of plain row-dictionaries — the series a figure of the paper plots.
This module centralizes the knobs they share:

* :class:`ExperimentConfig` — topology size, repetitions, seed, and the
  "quick" scaling used by the test-suite and the benchmark harness so a full
  figure can be exercised in a fraction of a second,
* seed handling (every repetition gets an independent, deterministic seed),
* construction of the paper's standard evaluation network: ``BT(n)`` with a
  rate scheme applied and leaf loads drawn from a distribution.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.tree import TreeNetwork
from repro.exceptions import ExperimentError
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import make_distribution, sample_leaf_loads
from repro.workload.rates import apply_rate_scheme

#: Budgets swept by Figure 6 (x-axis "number of blue nodes").
FIG6_BUDGETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
#: Budgets swept by Figure 8.
FIG8_BUDGETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
#: Rate schemes of Figures 6 and 7.
RATE_SCHEME_NAMES: tuple[str, ...] = ("constant", "linear", "exponential")
#: Load distributions of Figures 6 and 8.
DISTRIBUTION_NAMES: tuple[str, ...] = ("uniform", "power-law")


@dataclass(frozen=True)
class ExperimentConfig:
    """Common experiment parameters.

    Attributes
    ----------
    network_size:
        The ``n`` of ``BT(n)`` (number of nodes including the destination).
    repetitions:
        How many independent workload samples to average over (the paper
        uses 10).
    seed:
        Base seed; repetition ``i`` uses an independent child seed.

    Experiments solve on :data:`repro.core.engine.DEFAULT_BACKEND`; the
    backends are bit-identical, so the figures do not depend on it.
    """

    network_size: int = 256
    repetitions: int = 10
    seed: int = 2021
    extra: dict = field(default_factory=dict)

    def scaled(self, network_size: int | None = None, repetitions: int | None = None):
        """Return a copy with some knobs overridden (used for quick runs)."""
        return replace(
            self,
            network_size=network_size or self.network_size,
            repetitions=repetitions or self.repetitions,
        )


#: Paper-faithful configuration of the main evaluation.
PAPER_CONFIG = ExperimentConfig(network_size=256, repetitions=10, seed=2021)
#: Scaled-down configuration used by tests and smoke benchmarks.
QUICK_CONFIG = ExperimentConfig(network_size=32, repetitions=2, seed=7)


def repetition_seeds(config: ExperimentConfig) -> Iterator[np.random.Generator]:
    """Yield one independent, deterministic generator per repetition."""
    root = np.random.SeedSequence(config.seed)
    for child in root.spawn(config.repetitions):
        yield np.random.default_rng(child)


def build_evaluation_network(
    config: ExperimentConfig,
    rate_scheme: str,
    distribution: str,
    rng: np.random.Generator,
) -> TreeNetwork:
    """Build one sample of the paper's standard evaluation network.

    ``BT(network_size)`` with the given rate scheme applied to its links and
    leaf loads drawn from the named distribution.
    """
    if config.network_size < 2:
        raise ExperimentError(f"network size must be >= 2, got {config.network_size}")
    tree = bt_network(config.network_size)
    tree = apply_rate_scheme(tree, rate_scheme)
    loads = sample_leaf_loads(tree, make_distribution(distribution), rng=rng)
    return tree.with_loads(loads)


def budgets_for_network(budgets: Sequence[int], tree: TreeNetwork) -> list[int]:
    """Clamp a budget sweep so no budget exceeds the number of switches."""
    limit = tree.num_switches
    clamped = sorted({min(int(budget), limit) for budget in budgets if budget >= 0})
    if not clamped:
        raise ExperimentError("budget sweep is empty after clamping")
    return clamped
