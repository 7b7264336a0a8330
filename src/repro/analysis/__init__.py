"""Codebase-specific static analysis for the SOAR reproduction.

Generic linters cannot see the three properties this repo lives or dies
by: bit-identical determinism across kernel backends, the
writer-preferring lock discipline around the service's mutable fleet
objects, and the hand-written ctypes prototypes of the compiled backend.  This package is
the mechanical check for all of them — a small AST lint framework
(:mod:`repro.analysis.core`) plus rules written against this codebase's
idioms, run by ``soar-repro lint`` / ``python -m repro.analysis`` and
gated in CI against a committed baseline (:mod:`repro.analysis.baseline`).

Rules (each in its own module, self-registered on import):

* ``lock-discipline`` — mutations of ``FleetState`` /
  ``CapacityTracker`` / ``GatherTableCache`` only inside those classes,
  under a writer lock, or in ``@_requires_write`` functions.
* ``determinism-rng`` / ``determinism-clock`` / ``determinism-order`` —
  no unseeded RNG, no wall-clock reads in ``repro.core`` /
  ``repro.topology``, no unordered set/dict iteration feeding numeric
  reductions or digests.
* ``layering`` — ``repro.core`` / ``repro.topology`` never import the
  service/online/experiments layers above them.
* ``ffi-contract`` — the ``repro_*`` C prototypes match the ctypes
  ``argtypes`` / ``restype`` declarations symbol by symbol, and every
  struct a kernel takes matches its ``ctypes.Structure`` field by field.
* ``broad-except`` — no bare/broad excepts in ``repro.service`` outside
  re-raise cleanup paths and the pragma-marked request loop.

Interprocedural rules (over the whole-program call graph built by
:mod:`repro.analysis.callgraph` and the lock summaries of
:mod:`repro.analysis.summaries`):

* ``lock-order`` — the global lock-acquisition graph is acyclic; cycles
  and non-reentrant re-acquisitions are reported as potential deadlocks,
  and the graph is emitted as a DOT artifact in CI.
* ``blocking-under-lock`` — no ``os.fsync`` / file write / ``open`` /
  ``subprocess`` / ``sleep`` reachable while ``write_locked()`` or a
  plain mutex is held (the deliberate WAL-append-under-write-lock site
  carries a pragma).
* ``atomicity`` — no raise-capable call between multi-field mutations of
  the shared fleet objects without try/finally or a locals-then-assign
  rewrite (the static cousin of the PR 5 ``note_forced_release`` bug).
"""

from __future__ import annotations

# Importing the rule modules populates the registry (self-registration).
import repro.analysis.rules_atomicity  # noqa: F401  (registration)
import repro.analysis.rules_blocking  # noqa: F401  (registration)
import repro.analysis.rules_determinism  # noqa: F401  (registration)
import repro.analysis.rules_excepts  # noqa: F401  (registration)
import repro.analysis.rules_ffi  # noqa: F401  (registration)
import repro.analysis.rules_layering  # noqa: F401  (registration)
import repro.analysis.rules_lockorder  # noqa: F401  (registration)
import repro.analysis.rules_locks  # noqa: F401  (registration)
from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    split_findings,
    write_baseline,
)
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.core import (
    PARSE_COUNTS,
    RULES,
    Finding,
    Rule,
    SourceModule,
    filter_suppressed,
    lint_source,
    module_name_for,
    register_rule,
    run_fixture,
    suppressed_lines,
    suppression_spans,
)
from repro.analysis.formats import FORMATS, render_findings
from repro.analysis.rules_ffi import (
    check_ffi,
    parse_c_prototypes,
    parse_c_structs,
    parse_ctypes_decls,
    parse_ctypes_structs,
)
from repro.analysis.rules_lockorder import collect_lock_edges, lock_graph_dot
from repro.analysis.runner import find_project_root, lint_project, main
from repro.analysis.summaries import SummaryTable, table_for

__all__ = [
    "DEFAULT_BASELINE",
    "FORMATS",
    "Finding",
    "PARSE_COUNTS",
    "ProjectIndex",
    "RULES",
    "Rule",
    "SourceModule",
    "SummaryTable",
    "check_ffi",
    "collect_lock_edges",
    "filter_suppressed",
    "find_project_root",
    "lint_project",
    "lint_source",
    "load_baseline",
    "lock_graph_dot",
    "main",
    "module_name_for",
    "parse_c_prototypes",
    "parse_c_structs",
    "parse_ctypes_decls",
    "parse_ctypes_structs",
    "register_rule",
    "render_findings",
    "run_fixture",
    "split_findings",
    "suppressed_lines",
    "suppression_spans",
    "table_for",
    "write_baseline",
]
