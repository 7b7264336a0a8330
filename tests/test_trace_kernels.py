"""Differential suite for the backends' colour and cost kernels.

On the compiled backend ``repro_color`` traces every budget of a sweep in
one C call and ``repro_utilization`` costs every traced placement in
another; on the numpy backend the level-batched trace and the flat cost
kernel do the same budget by budget.  Together they are how
:meth:`GatherTable.sweep` (and ``place``, a sweep of one budget) answers.
Both backends must agree bit for bit with the per-node oracles —
:func:`soar_color` and :func:`utilization_cost` — on every backend's
tables, under both budget semantics, on the edge shapes, and on a foreign
same-structure network; and corrupt tables must raise
:class:`PlacementError` naming the same node on both backends.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import repro.core.color as color_module
import repro.core.cost as cost_module
import repro.core.engine_compiled as engine_compiled
import repro.core.solver as solver_module
from backend_params import needs_compiled
from repro.core.color import (
    blue_set,
    compiled_blue_masks,
    soar_color,
    soar_color_batched,
)
from repro.core.cost import (
    per_link_utilization,
    utilization_cost,
    utilization_cost_flat,
    utilization_costs_compiled,
)
from repro.core.engine import BACKENDS, COMPILED_BACKEND, DEFAULT_BACKEND, NUMPY_BACKEND
from repro.core.flat import cost_model_for
from repro.core.solver import Solver
from repro.core.tree import TreeNetwork
from repro.exceptions import PlacementError
from repro.testing import instance_stream, near_tie_stream, random_instance
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads

def _assert_matches_oracles(tree: TreeNetwork, budget: int, exact_k: bool) -> None:
    """Every backend's sweep and raw kernels == soar_color + utilization_cost."""
    for backend in BACKENDS:
        table = Solver(backend=backend, exact_k=exact_k).gather(tree, budget)
        budgets = list(range(table.budget + 1))
        blues = [soar_color(tree, table.result, k) for k in budgets]
        costs = [utilization_cost(tree, blue) for blue in blues]
        sweep = table.sweep(budgets)
        assert [sweep[k].blue_nodes for k in budgets] == blues, backend
        assert [sweep[k].cost for k in budgets] == costs, backend
        # The kernels themselves.
        flat, masks = backend.trace(tree, table.result, budgets)
        assert [blue_set(flat.order, mask) for mask in masks] == blues, backend
        model = cost_model_for(tree, flat)
        assert backend.costs(tree, masks, model).tolist() == costs, backend


def _compiled_cost(tree: TreeNetwork, blue) -> float:
    """Eq. (1) of one placement by the C cost kernel."""
    model = cost_model_for(tree)
    mask = np.zeros((1, len(model.order)), dtype=np.uint8)
    mask[0, [model.index[node] for node in blue]] = 1
    return float(utilization_costs_compiled(tree, mask, model)[0])


class TestDifferential:
    @pytest.mark.parametrize("exact_k", [False, True])
    def test_random_instances(self, exact_k):
        for tree, budget in instance_stream(
            seed=20261017 + int(exact_k), count=40, max_switches=14
        ):
            _assert_matches_oracles(tree, budget, exact_k)

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_restricted_availability(self, exact_k):
        rng = np.random.default_rng([16, int(exact_k)])
        for _ in range(12):
            tree = random_instance(rng, max_switches=20, restrict_availability=True)
            _assert_matches_oracles(tree, int(rng.integers(0, 8)), exact_k)

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_near_tie_instances(self, exact_k):
        for tree, budget in near_tie_stream(
            seed=0x7ACE + int(exact_k), count=25, max_switches=12
        ):
            _assert_matches_oracles(tree, budget, exact_k)

    def test_bt256_power_law_sweep(self):
        tree = bt_network(256)
        tree = tree.with_loads(
            sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=16)
        )
        for exact_k in (False, True):
            _assert_matches_oracles(tree, 16, exact_k)


class TestEdgeShapes:
    """The trees of the engine suite's edge cases, through the trace kernels."""

    @pytest.mark.parametrize("exact_k", [False, True])
    @pytest.mark.parametrize("available", [None, ()], ids=["all", "none"])
    def test_single_switch(self, exact_k, available):
        tree = TreeNetwork({"r": "d"}, loads={"r": 3}, available=available)
        for budget in (0, 1, 2):
            _assert_matches_oracles(tree, budget, exact_k)

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_deep_path(self, exact_k):
        tree = random_instance(
            np.random.default_rng(200), shape="path", num_switches=220
        )
        assert tree.height >= 200
        _assert_matches_oracles(tree, 6, exact_k)

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_wide_star(self, exact_k):
        tree = random_instance(np.random.default_rng(16), shape="star", num_switches=40)
        assert max(tree.num_children(node) for node in tree.switches) >= 16
        _assert_matches_oracles(tree, 8, exact_k)

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_empty_availability(self, exact_k):
        rng = np.random.default_rng([17, int(exact_k)])
        for shape in ("kary", "star", "path"):
            tree = random_instance(rng, shape=shape, num_switches=17).with_available(())
            for budget in (0, 4):
                _assert_matches_oracles(tree, budget, exact_k)

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_budget_zero_and_above_availability(self, exact_k):
        rng = np.random.default_rng([18, int(exact_k)])
        for _ in range(3):
            tree = random_instance(
                rng, num_switches=15, load_profile="mixed", restrict_availability=True
            )
            count = len(tree.available)
            for budget in (0, count + 1, tree.num_switches + 5):
                _assert_matches_oracles(tree, budget, exact_k)


class TestForeignTree:
    """Tables traced against a same-structure network with other loads and Λ."""

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_same_answer_as_batched(self, exact_k):
        rng = np.random.default_rng([19, int(exact_k)])
        tree = bt_network(64)
        tree = tree.with_loads(sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=1))
        table = Solver(exact_k=exact_k).gather(tree, 8)
        for seed in range(6):
            switches = sorted(tree.switches, key=repr)
            keep = rng.random(len(switches)) < 0.7
            foreign = tree.with_loads(
                sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=100 + seed),
                available=[node for node, kept in zip(switches, keep) if kept],
            )
            model = cost_model_for(tree)
            for budget in range(table.budget + 1):
                expected = soar_color_batched(foreign, table.result, budget)
                for backend in BACKENDS:
                    flat, masks = backend.trace(foreign, table.result, [budget])
                    assert blue_set(flat.order, masks[0]) == expected
                    if expected <= foreign.available:
                        assert backend.costs(foreign, masks, model)[
                            0
                        ] == utilization_cost_flat(foreign, expected, model=model)
                    else:
                        with pytest.raises(PlacementError, match="availability set"):
                            backend.costs(foreign, masks, model)


def _corruptible_table(available=None):
    """A fresh BT(32) table whose root has two internal children."""
    tree = bt_network(32)
    tree = tree.with_loads(sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=5))
    if available is not None:
        tree = tree.with_available(available(tree))
    return Solver().gather(tree, 4)


class TestCorruptTables:
    """Inconsistent tables raise PlacementError, never read out of bounds."""

    def _root_split_slot(self, flat):
        root = len(flat.order) - 1
        return root, int(flat.stage_offset[root]) + int(flat.num_children[root]) - 2

    def _assert_negative_budget(self, table, k, offender):
        message = f"negative budget to {offender!r}"
        for backend in BACKENDS:
            with pytest.raises(PlacementError, match=message):
                replace(table, backend=backend).place(k)
        with pytest.raises(PlacementError, match=message):
            soar_color_batched(table.tree, table.result, k)

    @pytest.mark.parametrize("value", [-1, 7], ids=["negative", "above-k"])
    def test_corrupt_split(self, value):
        table = _corruptible_table()
        flat = table.result.flat
        _, slot = self._root_split_slot(flat)
        k = table.budget
        # The split the root reads at (l = 1, i = k), whatever its colour:
        # -1 goes to the highest child; a share above k leaves the first
        # child a negative remainder.
        flat.splits_blue[slot, 1, k] = value
        flat.splits_red[slot, 1, k] = value
        children = table.tree.children(table.tree.root)
        self._assert_negative_budget(table, k, children[-1] if value < 0 else children[0])

    def test_corrupt_split_on_a_wide_node(self):
        # A star root walks many stages; a share far above its remainder
        # drives the remainder below -(k + 1) before the next stage reads.
        tree = TreeNetwork(
            {"r": "d", **{f"l{i}": "r" for i in range(6)}},
            loads={f"l{i}": 2 + i for i in range(6)},
        )
        table = Solver().gather(tree, 4)
        flat = table.result.flat
        _, slot = self._root_split_slot(flat)
        k = table.budget
        flat.splits_blue[slot, 1, k] = k + 10
        flat.splits_red[slot, 1, k] = k + 10
        self._assert_negative_budget(table, k, tree.children("r")[0])

    def test_blue_node_outside_availability(self):
        table = _corruptible_table(
            available=lambda tree: set(tree.switches) - {tree.root}
        )
        flat = table.result.flat
        root, _ = self._root_split_slot(flat)
        k = table.budget
        flat.y_blue[flat.col[root], 1, k] = -1.0  # forces y_blue < y_red at the root
        message = f"blue node {table.tree.root!r} is not in the availability set"
        for backend in BACKENDS:
            traced, masks = backend.trace(table.tree, table.result, [k])
            assert table.tree.root in blue_set(traced.order, masks[0])
            on_backend = replace(table, backend=backend)
            with pytest.raises(PlacementError, match=message):
                on_backend.place(k)
            with pytest.raises(PlacementError, match=message):
                on_backend.sweep(range(k + 1))

    @needs_compiled
    def test_kernel_checks_budgets_it_is_handed(self):
        table = _corruptible_table()
        flat = table.result.flat
        for budget in (-1, table.budget + 1):
            with pytest.raises(PlacementError, match="outside the tables' budgets"):
                engine_compiled.color_masks(
                    flat, flat.load, flat.avail, [budget], exact_k=False
                )


@needs_compiled
class TestCompiledDispatch:
    def test_registry_holds_the_c_kernels(self):
        assert DEFAULT_BACKEND is COMPILED_BACKEND
        assert COMPILED_BACKEND.repair_chain is engine_compiled.repair_chain
        assert COMPILED_BACKEND.trace is compiled_blue_masks
        assert COMPILED_BACKEND.costs is utilization_costs_compiled

    def test_sweep_is_one_colour_and_one_cost_call(self, monkeypatch, loaded_bt16):
        calls = {"color": 0, "cost": 0}

        def counted(name, kernel):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            color_module, "color_masks", counted("color", color_module.color_masks)
        )
        monkeypatch.setattr(
            cost_module,
            "utilization_costs",
            counted("cost", cost_module.utilization_costs),
        )
        table = Solver().gather(loaded_bt16, 8)
        sweep = table.sweep(range(1, 20))
        assert calls == {"color": 1, "cost": 1}
        assert len(sweep) == 19
        table.place(3)
        assert calls == {"color": 2, "cost": 2}
        # The same tables on the numpy backend make no C call.
        replace(table, backend=NUMPY_BACKEND).sweep(range(1, 5))
        assert calls == {"color": 2, "cost": 2}


class TestCostModelCache:
    # Backends under the ids of their (colour, cost) kernel pairs; a
    # Backend is a plain value, so the test also mixes the numpy trace
    # with the C cost kernel.
    @pytest.mark.parametrize(
        "backend",
        [
            pytest.param(COMPILED_BACKEND, id="compiled-compiled", marks=needs_compiled),
            pytest.param(
                COMPILED_BACKEND
                and replace(NUMPY_BACKEND, name="mixed", costs=COMPILED_BACKEND.costs),
                id="batched-compiled",
                marks=needs_compiled,
            ),
            pytest.param(NUMPY_BACKEND, id="batched-flat"),
        ],
    )
    def test_many_places_build_the_model_once(self, monkeypatch, loaded_bt16, backend):
        builds = []
        original = solver_module.cost_model_for

        def counting(*args, **kwargs):
            builds.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_module, "cost_model_for", counting)
        table = Solver(backend=backend).gather(loaded_bt16, 4)
        for _ in range(20):
            for budget in range(5):
                table.place(budget)
        assert len(builds) == 1
        assert table.cost_model() is table.cost_model()


def _python312_sum(terms: list[float]) -> float:
    """CPython 3.12's ``sum`` of floats: Neumaier-compensated, from ``0 + x0``."""
    total, compensation = 0 + terms[0], 0.0
    for term in terms[1:]:
        running = total + term
        if abs(total) >= abs(term):
            compensation += (total - running) + term
        else:
            compensation += (term - running) + total
        total = running
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@needs_compiled
class TestSummation:
    """The C sum reproduces the interpreter's ``sum`` in either mode."""

    def _star(self):
        # Post-order terms 1e16, 1, 1, 1, 1, 5: a running total drops the
        # ones, the compensated sum keeps them.
        leaves = ("l1", "l2", "l3", "l4", "l5")
        return TreeNetwork(
            {"r": "d", **{leaf: "r" for leaf in leaves}},
            rates={"r": 1.0, **{leaf: 1.0 for leaf in leaves}, "l5": 1e-16},
            loads={leaf: 1 for leaf in leaves},
        )

    def test_mode_follows_the_interpreter(self):
        assert engine_compiled._COMPENSATED_SUM == int(sys.version_info >= (3, 12))

    @pytest.mark.parametrize("compensated", [0, 1])
    def test_both_modes(self, monkeypatch, compensated):
        tree = self._star()
        terms = list(per_link_utilization(tree, frozenset()).values())
        running = 0.0
        for term in terms:
            running += term
        assert running != _python312_sum(terms)  # the two modes differ here
        monkeypatch.setattr(engine_compiled, "_COMPENSATED_SUM", compensated)
        expected = _python312_sum(terms) if compensated else running
        assert _compiled_cost(tree, frozenset()) == expected

    def test_interpreter_sum_is_modelled(self):
        terms = list(per_link_utilization(self._star(), frozenset()).values())
        if sys.version_info >= (3, 12):
            assert sum(terms) == _python312_sum(terms)
        else:
            running = 0.0
            for term in terms:
                running += term
            assert sum(terms) == running
        assert _compiled_cost(self._star(), frozenset()) == sum(terms)
