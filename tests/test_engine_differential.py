"""Differential verification of the kernel backends against the reference.

Both backends of :mod:`repro.core.engine` re-implement SOAR-Gather on
node-major ``(node, l, i)`` tensors but evaluate the identical
floating-point operations in the identical order, so everything they
produce — tables, argmin breadcrumbs, traced placements, costs — must be
*bit-identical* to the per-node reference implementation, and all must be
certified optimal by brute force on small instances.

Quick tier: a few dozen instances per tree shape.  Slow tier (``-m slow``):
500+ seeded instances across the whole generator space in both budget
semantics, plus instances of a few hundred nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from backend_params import needs_compiled
from repro.core import engine_compiled
from repro.core.color import blue_set, compiled_blue_masks, soar_color, soar_color_batched
from repro.core.engine import (
    BACKENDS,
    COMPILED_BACKEND,
    DEFAULT_BACKEND,
    DEFAULT_ENGINE,
    NUMPY_BACKEND,
    _batched_combine,
    _combine_small_batch,
    gather,
    subtree_available_counts,
)
from repro.core.engine_compiled import HAVE_COMPILED
from repro.core.gather import soar_gather
from repro.core.solver import Solver
from repro.core.tree import TreeNetwork
from repro.experiments.motivating import motivating_tree
from repro.testing import (
    SHAPES,
    assert_tables_equal,
    check_instance,
    instance_stream,
    near_tie_stream,
    random_budget,
    random_instance,
)

def _assert_engines_identical(tree, budget, exact_k):
    """Tables, placements, and costs must match bit for bit."""
    reference = soar_gather(tree, budget, exact_k=exact_k)
    traced = soar_color(tree, reference)
    for backend in BACKENDS:
        result = gather(tree, budget, exact_k, backend)
        assert_tables_equal(reference, result)
        assert soar_color(tree, result) == traced
        # ... and every backend's trace finds the same set in its tables.
        flat, masks = backend.trace(tree, result, [None])
        assert blue_set(flat.order, masks[0]) == traced
        assert soar_color_batched(tree, result) == traced


class TestEngineDispatch:
    def test_unknown_engine_rejected(self, paper_tree):
        # Backends are objects, not names: the old name knobs fail loudly.
        with pytest.raises(TypeError):
            gather(paper_tree, 2, engine="flat")
        with pytest.raises(TypeError):
            Solver(engine="flat")

    def test_registry_contains_all_engines(self):
        names = [backend.name for backend in BACKENDS]
        assert names == (["numpy", "compiled"] if HAVE_COMPILED else ["numpy"])
        assert BACKENDS[0] is NUMPY_BACKEND and DEFAULT_BACKEND is BACKENDS[-1]

    def test_results_record_their_engine(self, paper_tree):
        for backend in BACKENDS:
            assert Solver(backend=backend).gather(paper_tree, 2).backend is backend

    def test_solver_accepts_every_engine(self, paper_tree):
        for backend in BACKENDS:
            assert Solver(backend=backend).solve(paper_tree, 2).cost == 20.0

    def test_sweep_accepts_every_engine(self, paper_tree):
        for backend in BACKENDS:
            sweep = Solver(backend=backend).sweep(paper_tree, range(1, 5))
            assert [sweep[k].cost for k in (1, 2, 3, 4)] == [35.0, 20.0, 15.0, 11.0]


class TestSmallBatchCombine:
    """The stacked small-batch convolution matches the sequential split loop.

    ``_batched_combine`` runs its split loop only above 64 ``(row, node)``
    columns, so the reference here is a batch wide enough to take that
    path; the small-batch kernel sees the same operands.  Integer-valued
    entries with scattered ``+inf`` make ties and all-``inf`` columns
    common, which is where a tie-break slip would show.
    """

    @pytest.mark.parametrize("blue", [False, True])
    def test_bit_identical_to_the_split_loop(self, session_rng, blue):
        for _ in range(200):
            height = int(session_rng.integers(1, 12))
            budget = int(session_rng.integers(0, 17))
            batch = 65 // height + 1  # height * batch > 64: the loop path
            j_max = (
                None
                if session_rng.random() < 0.5
                else int(session_rng.integers(0, budget + 1))
            )
            previous = session_rng.integers(0, 4, (height, budget + 1, batch)).astype(float)
            previous[session_rng.random(previous.shape) < 0.2] = np.inf
            child = session_rng.integers(
                0, 4, (1 if blue else height, budget + 1, batch)
            ).astype(float)
            child[session_rng.random(child.shape) < 0.2] = np.inf
            expected = _batched_combine(previous, child, budget, blue, j_max)
            actual = _combine_small_batch(previous, child, budget, blue, j_max)
            assert actual[1].dtype == expected[1].dtype == np.int32
            assert np.array_equal(actual[0], expected[0])
            assert np.array_equal(actual[1], expected[1])


class TestSubtreeAvailability:
    """Regression for the level walk stopping at level 2 (issue 6).

    The accumulation used to iterate ``range(height, 1, -1)``, so depth-1
    counts never folded into the root — unobservable through the
    convolution cap (the root is never a convolution child) but a landmine
    for any kernel that reuses the array.  The root entry must be exactly
    ``|Λ|``, and every entry the true subtree count.
    """

    def _counts_for(self, tree):
        layout = tree.flat_layout()
        _, avail = tree.flat_vectors()
        counts = subtree_available_counts(layout, avail)
        return layout.order, layout.index, counts

    def test_root_count_is_full_availability(self, paper_tree):
        _, index, counts = self._counts_for(paper_tree)
        assert counts[index[paper_tree.root]] == len(paper_tree.available)

    def test_every_entry_is_the_true_subtree_count(self, session_rng):
        for _ in range(10):
            tree = random_instance(
                session_rng, restrict_availability=True, max_switches=12
            )
            order, index, counts = self._counts_for(tree)
            assert counts[index[tree.root]] == len(tree.available)

            def subtree_count(node):
                total = int(node in tree.available)
                for child in tree.children(node):
                    total += subtree_count(child)
                return total

            for node in order:
                assert counts[index[node]] == subtree_count(node), node


class TestCompiledBackend:
    """The compiled backend specifically: activation, fallback, near-ties."""

    @needs_compiled
    def test_c_kernels_are_active(self):
        # When a compiler exists the default backend runs the three C
        # kernels, not the numpy ones.
        assert DEFAULT_BACKEND is COMPILED_BACKEND
        assert COMPILED_BACKEND.repair_chain is engine_compiled.repair_chain
        assert COMPILED_BACKEND.trace is compiled_blue_masks
        for kernel in ("repair_chain", "trace", "costs"):
            assert getattr(COMPILED_BACKEND, kernel) is not getattr(NUMPY_BACKEND, kernel)

    def test_disable_env_forces_numpy_fallback(self):
        # A fresh interpreter with REPRO_NO_COMPILED set runs the numpy
        # kernels and says so: no backend reports "compiled".
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_NO_COMPILED="1")
        script = (
            "from repro.core.engine_compiled import HAVE_COMPILED\n"
            "from repro.core.engine import (\n"
            "    BACKENDS, COMPILED_BACKEND, DEFAULT_BACKEND, DEFAULT_ENGINE, gather)\n"
            "from repro.core.gather import soar_gather\n"
            "from repro.experiments.motivating import motivating_tree\n"
            "from repro.testing import assert_tables_equal\n"
            "assert not HAVE_COMPILED and COMPILED_BACKEND is None\n"
            "assert DEFAULT_BACKEND.name == 'numpy' and DEFAULT_ENGINE == 'numpy'\n"
            "assert [backend.name for backend in BACKENDS] == ['numpy']\n"
            "tree = motivating_tree()\n"
            "assert_tables_equal(soar_gather(tree, 2), gather(tree, 2))\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True, env=env)

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_near_tie_instances_bit_identical(self, exact_k):
        # Symmetric rates and loads make every convolution argmin and
        # colour decision a tie-break — exactly where a compiled kernel
        # with a subtly different scan order would diverge first.
        count = 0
        for tree, budget in near_tie_stream(
            seed=20260807 + int(exact_k), count=25, max_switches=12
        ):
            flat = gather(tree, budget, exact_k, NUMPY_BACKEND)
            compiled = gather(tree, budget, exact_k)
            assert_tables_equal(flat, compiled)
            traced = soar_color_batched(tree, flat)
            _, masks = DEFAULT_BACKEND.trace(tree, compiled, [None])
            assert blue_set(compiled.flat.order, masks[0]) == traced
            assert soar_color(tree, compiled) == traced
            count += 1
        assert count == 25


#: Digest of every defined table cell, breadcrumb, cost and placement of a
#: default-backend cold gather and delta repair, run in a fresh interpreter.
_DEFAULT_ENGINE_DIGEST = """
import hashlib
import numpy as np
from repro.core.engine_compiled import HAVE_COMPILED
from repro.core.solver import Solver
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads

tree = bt_network(64)
loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=23)
switches = sorted(tree.switches)
workload = tree.with_loads(loads, available=switches[::2])
digest = hashlib.sha256()
for exact_k in (False, True):
    solver = Solver(exact_k=exact_k)
    assert solver.backend.name == ("compiled" if HAVE_COMPILED else "numpy")
    cold = solver.gather(workload, 8)
    for table in (cold, cold.repair(frozenset(switches[1:12:2]) | {switches[0]})):
        for node in table.result.flat.order:
            tables = table.result.tables[node]
            for array in (tables.y_blue, tables.y_red, *tables.splits_blue, *tables.splits_red):
                digest.update(np.ascontiguousarray(array).tobytes())
        for budget in range(9):
            placement = table.place(budget)
            digest.update(repr((budget, placement.cost, sorted(placement.blue_nodes))).encode())
print(HAVE_COMPILED, digest.hexdigest())
"""


class TestDefaultEngine:
    """The compiled backend is the default everywhere it built, bit-identically."""

    def test_solver_and_service_default_to_compiled(self, paper_tree):
        from repro.service import PlacementService

        expected = COMPILED_BACKEND if HAVE_COMPILED else NUMPY_BACKEND
        assert DEFAULT_BACKEND is expected
        assert DEFAULT_ENGINE == expected.name
        assert Solver().backend is expected
        assert PlacementService(paper_tree, 2).backend is expected
        assert Solver().gather(paper_tree, 2).backend is expected

    def test_numpy_fallback_leg_is_byte_identical(self):
        # The same default-backend gathers and repairs in two fresh
        # interpreters: the C kernels (when a compiler exists) and the
        # REPRO_NO_COMPILED=1 numpy fallback must digest identically.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        source_root = str(Path(repro.__file__).resolve().parents[1])
        outputs = {}
        for disabled in (False, True):
            env = dict(os.environ, PYTHONPATH=source_root)
            env.pop("REPRO_NO_COMPILED", None)
            if disabled:
                env["REPRO_NO_COMPILED"] = "1"
            completed = subprocess.run(
                [sys.executable, "-c", _DEFAULT_ENGINE_DIGEST],
                check=True,
                env=env,
                capture_output=True,
                text=True,
            )
            outputs[disabled] = completed.stdout.split()
        assert outputs[True][0] == "False"
        assert outputs[True][1] == outputs[False][1]


class TestPaperExample:
    @pytest.mark.parametrize("exact_k", [False, True])
    def test_motivating_tree_all_budgets(self, exact_k):
        tree = motivating_tree()
        for budget in range(tree.num_switches + 2):
            _assert_engines_identical(tree, budget, exact_k)


class TestRandomizedQuick:
    """A focused sweep per tree shape; runs in the quick tier."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("exact_k", [False, True])
    def test_shape_against_reference_and_bruteforce(self, shape, exact_k):
        # str hashes are salted per process; derive the seed stably instead.
        rng = np.random.default_rng([SHAPES.index(shape), int(exact_k)])
        for _ in range(12):
            tree = random_instance(rng, shape=shape, max_switches=10)
            budget = random_budget(rng, tree)
            _assert_engines_identical(tree, budget, exact_k)
            check_instance(tree, budget, exact_k=exact_k)

    def test_zero_load_instances(self, session_rng):
        for _ in range(10):
            tree = random_instance(session_rng, load_profile="zero", max_switches=9)
            budget = random_budget(session_rng, tree)
            for exact_k in (False, True):
                _assert_engines_identical(tree, budget, exact_k)

    def test_skewed_load_instances(self, session_rng):
        for _ in range(10):
            tree = random_instance(session_rng, load_profile="skewed", max_switches=9)
            budget = random_budget(session_rng, tree)
            for exact_k in (False, True):
                _assert_engines_identical(tree, budget, exact_k)
                check_instance(tree, budget, exact_k=exact_k)

    def test_restricted_availability_instances(self, session_rng):
        for _ in range(15):
            tree = random_instance(
                session_rng, restrict_availability=True, max_switches=9
            )
            budget = random_budget(session_rng, tree)
            for exact_k in (False, True):
                _assert_engines_identical(tree, budget, exact_k)
                check_instance(tree, budget, exact_k=exact_k)

    def test_skewed_rates_instances(self, session_rng):
        rates = (0.0625, 0.125, 8.0, 16.0)  # four-orders-of-magnitude spread
        for _ in range(10):
            tree = random_instance(session_rng, rate_choices=rates, max_switches=9)
            budget = random_budget(session_rng, tree)
            for exact_k in (False, True):
                _assert_engines_identical(tree, budget, exact_k)


class TestEdgeShapes:
    """Edges the seeded streams draw rarely or never, through every
    backend's cold gather against the reference, both semantics.  (Deep
    paths and wide stars run in :class:`TestRandomizedSlow`.)"""

    @pytest.mark.parametrize("exact_k", [False, True])
    @pytest.mark.parametrize("available", [None, ()], ids=["all", "none"])
    def test_single_switch(self, exact_k, available):
        tree = TreeNetwork({"r": "d"}, loads={"r": 3}, available=available)
        for budget in (0, 1, 2):
            _assert_engines_identical(tree, budget, exact_k)

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_empty_availability(self, exact_k):
        rng = np.random.default_rng([11, int(exact_k)])
        for shape in ("kary", "star", "path"):
            tree = random_instance(rng, shape=shape, num_switches=17).with_available(())
            for budget in (0, 4):
                _assert_engines_identical(tree, budget, exact_k)

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_budget_zero_and_above_availability(self, exact_k):
        rng = np.random.default_rng([12, int(exact_k)])
        for _ in range(4):
            tree = random_instance(
                rng, num_switches=15, load_profile="mixed", restrict_availability=True
            )
            count = len(tree.available)
            for budget in (0, count, count + 1, tree.num_switches + 5):
                _assert_engines_identical(tree, budget, exact_k)


@pytest.mark.slow
class TestRandomizedSlow:
    """The acceptance sweep: 500+ seeded instances, both budget semantics."""

    def test_five_hundred_instances_cost_and_placement(self):
        count = 0
        for tree, budget in instance_stream(seed=20211207, count=500, max_switches=12):
            for exact_k in (False, True):
                # check_instance asserts backend cost == reference cost, equal
                # placements, feasibility, and brute-force optimality on
                # instances small enough to enumerate.
                check_instance(tree, budget, exact_k=exact_k)
            count += 1
        assert count == 500

    def test_table_equality_sample(self):
        # Bitwise table equality is costlier than cost equality, so the
        # full-table comparison runs on a 100-instance subsample.
        for tree, budget in instance_stream(seed=77, count=100, max_switches=12):
            for exact_k in (False, True):
                _assert_engines_identical(tree, budget, exact_k)

    @pytest.mark.parametrize("shape", ["uniform", "kary", "scale_free", "binary"])
    def test_medium_instances_match_reference(self, shape):
        rng = np.random.default_rng([SHAPES.index(shape), 99])
        for num_switches in (120, 250, 400):
            tree = random_instance(
                rng, shape=shape, num_switches=num_switches, load_profile="mixed"
            )
            budget = int(rng.integers(1, 16))
            for exact_k in (False, True):
                _assert_engines_identical(tree, budget, exact_k)

    def test_deep_path_instances(self):
        # Path networks stress the parameter axis (depth = n) and must not
        # recurse; every implementation is iterative.
        rng = np.random.default_rng(5)
        tree = random_instance(rng, shape="path", num_switches=300)
        for exact_k in (False, True):
            _assert_engines_identical(tree, 8, exact_k)

    def test_wide_star_instances(self):
        # Star networks stress the stage loop (one node, hundreds of
        # children -> hundreds of convolution stages).
        rng = np.random.default_rng(6)
        tree = random_instance(rng, shape="star", num_switches=300)
        for exact_k in (False, True):
            _assert_engines_identical(tree, 8, exact_k)
