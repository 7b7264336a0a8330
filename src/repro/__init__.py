"""Reproduction of "SOAR: Minimizing Network Utilization with Bounded
In-network Computing" (Segal, Avin, Scalosub — CoNEXT 2021).

The package implements the φ-BIC problem and the SOAR optimal placement
algorithm, the contending baselines, the topology / workload generators of
the paper's evaluation, the online multi-workload extension, the word-count
and parameter-server byte-complexity case studies, an event-driven software
dataplane, and an experiment harness that regenerates every figure.

Quickstart
----------
SOAR is a two-phase algorithm — an expensive gather dynamic program
followed by a cheap colouring trace — and the API mirrors that structure.
A :class:`repro.Solver` binds the configuration once; ``solver.gather``
produces an immutable :class:`repro.GatherTable` artifact that answers
*every* budget up to the gathered one; ``table.place`` traces a
:class:`repro.Placement` out of it:

>>> import repro
>>> tree = repro.complete_binary_tree(4, leaf_loads=[2, 6, 5, 4])
>>> solver = repro.Solver()
>>> table = solver.gather(tree, max_budget=4)   # the expensive phase, once
>>> table.place(2).cost                         # the cheap phase, per budget
20.0
>>> {k: table.cost(k) for k in (1, 2, 3, 4)}    # pure table lookups
{1: 35.0, 2: 20.0, 3: 15.0, 4: 11.0}

One-shot helpers skip the explicit artifact when there is nothing to
reuse — ``solver.solve(tree, 2)``, ``solver.sweep(tree, range(5))``,
``solver.cost(tree, 2)`` — and ``solver.solve_many`` /
``solver.sweep_many`` batch whole instance lists, sharing gathers across
same-tree entries.  The historical free functions (``repro.solve``,
``repro.solve_budget_sweep``, ``repro.optimal_cost``) went through a
deprecation release as bit-identical shims and have been removed; the
migration table lives in ``CHANGES.md``.

Backends
--------
Every hot loop of a solve — the gather's dynamic program (and its delta
repairs), the colour trace, and the Eq. (1) recompute of the traced
placement — runs on one :class:`repro.Backend`, bound when constructing
the solver (``Solver(backend=...)``) or the service
(``PlacementService(..., backend=...)``):

* :data:`repro.DEFAULT_BACKEND` — the ``compiled`` backend when its C
  kernels build (:mod:`repro.core.engine_compiled`; one C call per
  gather or repair, one for every budget of a sweep's trace, one for
  their costs), else the ``numpy`` one; its ``name`` says which,
* :data:`repro.NUMPY_BACKEND` — the same three loops level-batched in
  numpy.

Both produce bit-identical tables, costs, and placements, and so do the
per-node reference walks of the paper (:func:`repro.soar_gather`,
:func:`repro.soar_color`, :func:`repro.utilization_cost`), which the
tests use as ground truth; ``tests/test_engine_differential.py``,
``tests/test_api_equivalence.py``, ``tests/test_cost_kernels.py`` and
``tests/test_trace_kernels.py`` enforce this on hundreds of seeded random
instances.

Placement service
-----------------
:mod:`repro.service` wraps the solver in a long-lived multi-tenant daemon:
:class:`repro.PlacementService` owns fleet state (residual switch capacity,
active tenants), serves typed ``Solve`` / ``Sweep`` / ``Admit`` /
``Release`` / ``Drain`` / ``Stats`` requests through a batched loop, and
reuses gather tables across requests via an LRU cache with budget
upcasting — warm queries skip the gather entirely while staying
bit-identical to cold :meth:`repro.Solver.solve` calls.  Churn traces
(:func:`repro.generate_churn_trace`, JSON-lines round-trip) and the replay
driver (:func:`repro.replay_trace`) measure throughput, latency, and cache
hit rate; ``soar-repro serve-replay`` drives it from the command line.

Randomized testing
------------------
:mod:`repro.testing` ships the seeded random φ-BIC instance generators
(:func:`repro.testing.random_instance`,
:func:`repro.testing.instance_stream` — uniform / k-ary / scale-free /
path / star shapes, zero / positive / skewed loads, optional random Λ) and
invariant checkers (:func:`repro.testing.check_instance` and friends) used
by the test-suite.  They are part of the public API so downstream users can
fuzz their own extensions the same way.
"""

from repro.core import (
    DEFAULT_BACKEND,
    NUMPY_BACKEND,
    Backend,
    GatherTable,
    Placement,
    Solver,
    TreeNetwork,
    all_blue_cost,
    all_red_cost,
    cost_model_for,
    evaluate_cost,
    gather,
    link_message_counts,
    normalized_utilization,
    soar_color,
    soar_color_batched,
    soar_gather,
    solve_bruteforce,
    utilization_cost,
    utilization_cost_flat,
)
from repro.baselines import ALL_STRATEGIES, PAPER_STRATEGIES, get_strategy
from repro.topology import (
    bt_network,
    complete_binary_tree,
    fat_tree_aggregation_tree,
    kary_tree,
    scale_free_tree,
    sf_network,
)
from repro.service import (
    AdmitRequest,
    DrainRequest,
    PlacementService,
    ReleaseRequest,
    SolveRequest,
    StatsRequest,
    SweepRequest,
    generate_churn_trace,
    replay_trace,
)
from repro.workload import (
    PowerLawLoadDistribution,
    UniformLoadDistribution,
    apply_rate_scheme,
    with_sampled_leaf_loads,
)

# 2.0.0: the deprecated pre-Solver free functions were removed (the only
# breaking change; everything else in this release is additive).
__version__ = "2.0.0"

__all__ = [
    "ALL_STRATEGIES",
    "AdmitRequest",
    "Backend",
    "DEFAULT_BACKEND",
    "DrainRequest",
    "GatherTable",
    "NUMPY_BACKEND",
    "PAPER_STRATEGIES",
    "Placement",
    "PlacementService",
    "PowerLawLoadDistribution",
    "ReleaseRequest",
    "SolveRequest",
    "Solver",
    "StatsRequest",
    "SweepRequest",
    "TreeNetwork",
    "UniformLoadDistribution",
    "all_blue_cost",
    "all_red_cost",
    "apply_rate_scheme",
    "bt_network",
    "complete_binary_tree",
    "cost_model_for",
    "evaluate_cost",
    "fat_tree_aggregation_tree",
    "gather",
    "generate_churn_trace",
    "get_strategy",
    "kary_tree",
    "link_message_counts",
    "normalized_utilization",
    "replay_trace",
    "scale_free_tree",
    "sf_network",
    "soar_color",
    "soar_color_batched",
    "soar_gather",
    "solve_bruteforce",
    "utilization_cost",
    "utilization_cost_flat",
    "with_sampled_leaf_loads",
    "__version__",
]
