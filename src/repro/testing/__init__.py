"""Randomized testing toolkit: φ-BIC instance generators and invariant checkers.

This package is public API.  The repo's own test-suite drives its
differential verification of the kernel backends through it
(``tests/test_engine_differential.py``, ``tests/test_invariants.py``), and
downstream users extending the solver are encouraged to fuzz their changes
the same way::

    from repro.testing import check_instance, instance_stream

    for tree, budget in instance_stream(seed=42, count=500):
        check_instance(tree, budget)               # backends == reference == brute force
        check_instance(tree, budget, exact_k=True)

See :mod:`repro.testing.generators` for the instance space (tree shapes,
load profiles, availability restriction) and
:mod:`repro.testing.invariants` for the individual checkers.
"""

from repro.testing.generators import (
    AVAILABILITY_PATTERNS,
    DYADIC_RATES,
    LOAD_PROFILES,
    LOAD_TIE_PROFILES,
    NEAR_TIE_EPSILON,
    RATE_PROFILES,
    SHAPES,
    instance_stream,
    near_tie_stream,
    patterned_availability,
    random_availability,
    random_budget,
    random_instance,
    random_loads,
    random_parents,
    random_rates,
    random_tie_loads,
)
from repro.testing.invariants import (
    assert_budget_monotone,
    assert_cost_sandwich,
    assert_gather_consistent,
    assert_placement_feasible,
    assert_solution_consistent,
    assert_tables_equal,
    bruteforce_subset_count,
    check_budget_sweep,
    check_instance,
    costs_close,
)

__all__ = [
    "AVAILABILITY_PATTERNS",
    "DYADIC_RATES",
    "LOAD_PROFILES",
    "LOAD_TIE_PROFILES",
    "NEAR_TIE_EPSILON",
    "RATE_PROFILES",
    "SHAPES",
    "assert_budget_monotone",
    "assert_cost_sandwich",
    "assert_gather_consistent",
    "assert_placement_feasible",
    "assert_solution_consistent",
    "assert_tables_equal",
    "bruteforce_subset_count",
    "check_budget_sweep",
    "check_instance",
    "costs_close",
    "instance_stream",
    "near_tie_stream",
    "patterned_availability",
    "random_availability",
    "random_budget",
    "random_instance",
    "random_loads",
    "random_parents",
    "random_rates",
    "random_tie_loads",
]
