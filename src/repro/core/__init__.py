"""Core of the reproduction: the tree model, the cost metrics, and SOAR.

The sub-modules map directly onto the paper's sections:

* :mod:`repro.core.tree` — the weighted tree network of Section 2,
* :mod:`repro.core.reduce_op` — the Reduce operation (Algorithm 1) and its
  per-link message accounting,
* :mod:`repro.core.cost` — the utilization complexity (Eq. 1) and its
  barrier re-formulation (Lemma 4.2): the per-node reference walk and the
  batched numpy and C kernels, bit-identical including summation order,
* :mod:`repro.core.gather` / :mod:`repro.core.color` — the two phases of
  SOAR (Algorithms 3 and 4): the per-node reference walks and the
  backends' batched traces,
* :mod:`repro.core.engine` — the kernel :class:`Backend` (``numpy``, and
  ``compiled`` when the C kernels build) and the gather and repair
  drivers, which run its ``repair_chain`` with every switch dirty for a
  cold gather and a delta's ancestor chains for a repair,
* :mod:`repro.core.flat` — the node-major ``(node, l, i)`` tensor layout the
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
from repro.core.color import soar_color, soar_color_batched
from repro.core.cost import (
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
    COMPILED_BACKEND,
    DEFAULT_BACKEND,
    NUMPY_BACKEND,
    Backend,
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
    Loads,
    NodeId,
    TreeNetwork,
    fingerprint_loads,
    fingerprint_nodes,
)

__all__ = [
    "Backend",
    "COMPILED_BACKEND",
    "DEFAULT_BACKEND",
    "BruteForceSolution",
    "DEFAULT_DESTINATION",
    "FlatCostModel",
    "FlatTables",
    "GatherResult",
    "GatherTable",
    "IncrementalDigest",
    "Loads",
    "NodeId",
    "NodeTables",
    "NUMPY_BACKEND",
    "Placement",
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
    "gather",
    "link_message_counts",
    "normalized_utilization",
    "per_link_utilization",
    "per_link_utilization_flat",
    "run_reduce",
    "soar_color",
    "soar_color_batched",
    "soar_gather",
    "solve_bruteforce",
    "total_messages",
    "utilization_cost",
    "utilization_cost_barrier",
    "utilization_cost_flat",
    "validate_placement",
]
