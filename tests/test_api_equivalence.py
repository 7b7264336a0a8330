"""API-equivalence suite for the staged ``Solver`` path and its kernels.

Three contracts, each enforced on hundreds of seeded random instances:

* the level-batched colour kernel traces exactly the same blue set as the
  per-node reference trace, out of every backend's tables, at every budget
  a table carries — including on adversarial near-tie instances where every
  argmin is a tie-break over the stored breadcrumbs;
* reusing a gather artifact under the wrong budget semantics raises
  (:class:`~repro.exceptions.SemanticsMismatchError`) instead of silently
  tracing answers for a different problem;
* no internal path emits a ``DeprecationWarning`` — the pre-``Solver``
  free-function shims (``solve`` / ``solve_budget_sweep`` /
  ``optimal_cost``) completed their deprecation cycle and were removed,
  and nothing may quietly grow a replacement.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from repro.core.color import soar_color, soar_color_batched
from repro.core.cost import utilization_cost
from repro.core.engine import BACKENDS, DEFAULT_BACKEND, NUMPY_BACKEND, gather
from repro.core.gather import soar_gather
from repro.core.solver import GatherTable, Solver
from repro.exceptions import SemanticsMismatchError, TableMismatchError
from repro.testing import instance_stream, near_tie_stream


class TestRemovedShims:
    """The deprecated free functions are gone, not just quietly broken."""

    def test_free_functions_removed(self):
        import repro
        import repro.core

        for name in ("solve", "solve_budget_sweep", "optimal_cost", "SoarSolution"):
            assert not hasattr(repro, name), name
            assert not hasattr(repro.core, name), name
        with pytest.raises(ModuleNotFoundError):
            import repro.core.soar  # noqa: F401


class TestBatchedColorExactness:
    """The batched colour kernel is bit-identical to the reference trace."""

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_random_instances_every_budget(self, exact_k):
        for tree, budget in instance_stream(seed=90210, count=60, max_switches=12):
            for backend in BACKENDS:
                gathered = gather(tree, budget, exact_k, backend)
                for k in range(gathered.budget + 1):
                    assert soar_color_batched(tree, gathered, budget=k) == soar_color(
                        tree, gathered, budget=k
                    ), f"kernels diverge at budget {k} on {backend.name} tables"

    def test_near_tie_instances_breadcrumb_ties(self):
        # Symmetric rates/loads and straddled Λ make every colour decision
        # and split lookup a tie-break over the stored breadcrumbs; the two
        # kernels must still walk them identically.
        for tree, budget in near_tie_stream(20260730, 80, max_switches=11):
            gathered = gather(tree, budget)
            for k in range(gathered.budget + 1):
                assert soar_color_batched(tree, gathered, budget=k) == soar_color(
                    tree, gathered, budget=k
                )

    def test_kernels_agree_on_foreign_same_structure_tree(self, paper_tree):
        # The leaf colour rule reads the *caller's* loads and Λ, not
        # gather-time state: tracing tables against a modified same-root
        # network must keep the two kernels identical (regression — the
        # batched kernel once consulted the arrays cached at gather time).
        gathered = gather(paper_tree, 2)
        flattened = paper_tree.with_loads({s: 1 for s in paper_tree.switches})
        assert soar_color_batched(flattened, gathered) == soar_color(
            flattened, gathered
        )
        restricted = paper_tree.with_available({"s1_0"})
        assert soar_color_batched(restricted, gathered) == soar_color(
            restricted, gathered
        )

    def test_solver_color_selection_matches(self, loaded_bt16):
        for backend in BACKENDS:
            solution = Solver(backend=backend).solve(loaded_bt16, 5)
            traced = soar_color(loaded_bt16, solution.table.result, 5)
            assert solution.blue_nodes == traced
            assert solution.cost == utilization_cost(loaded_bt16, traced)


class TestSolverKernelEquivalence:
    """Every backend is bit-identical to the paper's per-node walks."""

    def test_kernel_grid_on_seeded_instances(self):
        for tree, budget in instance_stream(seed=31337, count=40, max_switches=12):
            reference = soar_gather(tree, budget)
            blue = soar_color(tree, reference)
            cost = utilization_cost(tree, blue)
            for backend in BACKENDS:
                solution = Solver(backend=backend).solve(tree, budget)
                assert solution.blue_nodes == blue
                assert solution.cost == cost
                assert solution.predicted_cost == reference.optimal_cost
                assert solution.budget == reference.budget

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_semantics_produce_distinct_tables_but_stable_answers(self, exact_k):
        for tree, budget in instance_stream(seed=4242, count=20, max_switches=10):
            solver = Solver(exact_k=exact_k)
            table = solver.gather(tree, budget)
            sweep = table.sweep(range(table.budget + 1))
            for k, placement in sweep.items():
                again = table.place(k)
                assert again.blue_nodes == placement.blue_nodes
                assert again.cost == placement.cost


class TestReuseMismatchRegression:
    """Mismatched artifact reuse raises instead of lying.

    Historically the free-function API silently traced tables gathered
    under one budget semantics as answers for the other, corrupting whole
    sweeps.  The artifact carries its semantics and refuses the mismatch.
    """

    def _zero_load_tree(self):
        # exact-k and at-most-k genuinely differ here (a zero-load leaf
        # makes forced blue placements costly), so the historical bug
        # produced *wrong* numbers, not just impolite ones.
        from repro.core.tree import TreeNetwork

        return TreeNetwork(
            parents={"r": "d", "a": "r", "b": "r"},
            loads={"a": 5, "b": 0},
        )

    def test_semantics_mismatch_raises_and_honest_reuse_differs(self):
        tree = self._zero_load_tree()
        exact_table = Solver(exact_k=True).gather(tree, 3)
        at_most_table = Solver().gather(tree, 3)
        with pytest.raises(SemanticsMismatchError):
            exact_table.require(exact_k=False)
        with pytest.raises(SemanticsMismatchError):
            at_most_table.require(exact_k=True)
        # The honest reuses still work and differ from each other — which is
        # exactly why the silent mix-up used to corrupt sweeps.
        assert exact_table.place(3).cost != at_most_table.place(3).cost

    def test_engine_mismatch_on_the_artifact(self, paper_tree):
        # Tables carry no engine contract any more: the backends build
        # bit-identical tables, so a table answers identically whichever
        # backend traces it, and require() has no engine to check.
        table = Solver(backend=NUMPY_BACKEND).gather(paper_tree, 2)
        with pytest.raises(TypeError):
            table.require(engine="flat")
        for backend in BACKENDS:
            placement = replace(table, backend=backend).place(2)
            assert placement.cost == 20.0
            assert placement.blue_nodes == table.place(2).blue_nodes

    def test_require_on_the_artifact(self, paper_tree):
        table = Solver(backend=NUMPY_BACKEND, exact_k=True).gather(paper_tree, 2)
        with pytest.raises(SemanticsMismatchError):
            table.require(exact_k=False)
        table.require(exact_k=True)  # matching: no raise
        table.require()  # nothing asked: no raise

    def test_mismatches_share_a_catchable_base(self, paper_tree):
        table = Solver(exact_k=True).gather(paper_tree, 2)
        with pytest.raises(TableMismatchError):
            table.require(exact_k=False)
        assert issubclass(SemanticsMismatchError, TableMismatchError)

    def test_artifact_provenance_fields(self, paper_tree):
        table = Solver(backend=NUMPY_BACKEND).gather(paper_tree, 3)
        assert isinstance(table, GatherTable)
        assert table.backend is NUMPY_BACKEND
        assert Solver().gather(paper_tree, 3).backend is DEFAULT_BACKEND
        assert table.fingerprint == paper_tree.fingerprint()


class TestWarningHygiene:
    """No internal path emits a DeprecationWarning."""

    def test_internal_paths_warn_free(self, paper_tree):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            solver = Solver()
            table = solver.gather(paper_tree, 4)
            table.sweep(range(5))
            solver.solve_many([(paper_tree, 2), (paper_tree, 3)])

    def test_service_paths_warn_free(self, paper_tree):
        from repro.service import PlacementService, SolveRequest, SweepRequest

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = PlacementService(paper_tree, capacity=2)
            loads = {leaf: 3 for leaf in paper_tree.leaves()}
            service.submit(SolveRequest(loads=loads, budget=2))
            service.submit(SolveRequest(loads=loads, budget=2))
            service.submit(SweepRequest(loads=loads, budgets=(1, 2)))
