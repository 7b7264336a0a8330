"""Core of the reproduction: the tree model, the cost metrics, and SOAR.

The sub-modules map directly onto the paper's sections:

* :mod:`repro.core.tree` — the weighted tree network of Section 2,
* :mod:`repro.core.reduce_op` — the Reduce operation (Algorithm 1) and its
  per-link message accounting,
* :mod:`repro.core.cost` — the utilization complexity (Eq. 1) and its
  barrier re-formulation (Lemma 4.2); ships the :data:`COST_KERNELS`
  registry (per-node ``"reference"`` walk vs the level-batched ``"flat"``
  kernel, bit-identical including summation order),
* :mod:`repro.core.gather` / :mod:`repro.core.color` — the two phases of
  SOAR (Algorithms 3 and 4); each phase ships a batched kernel and a
  per-node reference implementation,
* :mod:`repro.core.engine` — the gather-engine registry; the flat
  engines run one ``repair_chain`` kernel (C for ``"compiled"``, numpy
  for ``"flat"``) with every switch dirty for a cold gather and a delta's
  ancestor chains for a repair,
* :mod:`repro.core.flat` — the flat ``(l, i, node)`` tensor layout the
  batched kernels share (its structure half,
  :class:`~repro.core.flat.FlatLayout`, is built once per weighted tree
  and memoized on it), plus the :class:`~repro.core.flat.FlatCostModel`
  metadata the flat cost kernel traverses,
* :mod:`repro.core.solver` — the user-facing staged API
  (:class:`Solver` / :class:`GatherTable` / :class:`Placement`),
* :mod:`repro.core.bruteforce` — the exhaustive reference used for
  optimality certification in the tests.

The pre-``Solver`` free functions (``solve`` / ``solve_budget_sweep`` /
``optimal_cost``) went through a deprecation release as bit-identical
shims and have been removed; see the migration table in ``CHANGES.md``.
"""

from repro.core.bruteforce import BruteForceSolution, solve_bruteforce
from repro.core.color import (
    BATCHED_COLOR,
    COLOR_KERNELS,
    DEFAULT_COLOR,
    REFERENCE_COLOR,
    soar_color,
    soar_color_batched,
    trace_color,
)
from repro.core.cost import (
    COST_KERNELS,
    DEFAULT_COST,
    FLAT_COST,
    REFERENCE_COST,
    all_blue_cost,
    all_red_cost,
    cost_reduction,
    evaluate_cost,
    normalized_utilization,
    per_link_utilization,
    per_link_utilization_flat,
    utilization_cost,
    utilization_cost_barrier,
    utilization_cost_flat,
)
from repro.core.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    FLAT_ENGINE,
    REFERENCE_ENGINE,
    flat_gather,
    gather,
)
from repro.core.flat import FlatCostModel, FlatTables, cost_model_for
from repro.core.gather import GatherResult, NodeTables, soar_gather
from repro.core.reduce_op import (
    ReduceTrace,
    link_message_counts,
    run_reduce,
    total_messages,
    validate_placement,
)
from repro.core.solver import GatherTable, Placement, Solver
from repro.core.tree import (
    DEFAULT_DESTINATION,
    IncrementalDigest,
    NodeId,
    TreeNetwork,
    fingerprint_loads,
    fingerprint_nodes,
)

__all__ = [
    "BATCHED_COLOR",
    "BruteForceSolution",
    "COLOR_KERNELS",
    "COST_KERNELS",
    "DEFAULT_COLOR",
    "DEFAULT_COST",
    "DEFAULT_DESTINATION",
    "DEFAULT_ENGINE",
    "ENGINES",
    "FLAT_COST",
    "FLAT_ENGINE",
    "FlatCostModel",
    "FlatTables",
    "GatherResult",
    "GatherTable",
    "IncrementalDigest",
    "NodeId",
    "NodeTables",
    "Placement",
    "REFERENCE_COLOR",
    "REFERENCE_COST",
    "REFERENCE_ENGINE",
    "ReduceTrace",
    "Solver",
    "TreeNetwork",
    "all_blue_cost",
    "all_red_cost",
    "cost_model_for",
    "cost_reduction",
    "evaluate_cost",
    "fingerprint_loads",
    "fingerprint_nodes",
    "flat_gather",
    "gather",
    "link_message_counts",
    "normalized_utilization",
    "per_link_utilization",
    "per_link_utilization_flat",
    "run_reduce",
    "soar_color",
    "soar_color_batched",
    "soar_gather",
    "trace_color",
    "solve_bruteforce",
    "total_messages",
    "utilization_cost",
    "utilization_cost_barrier",
    "utilization_cost_flat",
    "validate_placement",
]
