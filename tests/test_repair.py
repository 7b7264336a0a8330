"""Differential verification of incremental gather-table repair (PR 9).

A repaired table must be *bit-identical* to a cold gather at the new
availability — tables, argmin breadcrumbs, traced placements, costs — on
both backends (numpy and compiled), for chains of
repair-of-repair, and for every budget semantics.  Where repair is
unsound (structure or load changes, a shifted effective budget, results
without flat tensors) it must refuse with
:class:`~repro.exceptions.RepairError` so callers fall back to a cold
gather instead of serving a wrong answer.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import weakref

import numpy as np
import pytest

from pathlib import Path

from backend_params import BACKEND_PARAMS, needs_compiled
from repro.core import engine_compiled
from repro.core.color import soar_color, soar_color_batched
from repro.core.engine import (
    BACKENDS,
    COMPILED_BACKEND,
    NUMPY_BACKEND,
    gather,
    repair,
)
from repro.core.flat import LazyNodeTables, dirty_ancestor_positions, dirty_slots
from repro.core.gather import soar_gather
from repro.core.solver import Solver
from repro.exceptions import AvailabilityError, RepairError
from repro.testing import (
    assert_tables_equal,
    instance_stream,
    near_tie_stream,
)
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads


def _random_delta(rng, tree, max_flips=3):
    """A random non-empty availability delta over the tree's switches."""
    switches = list(tree.switches)
    flips = int(rng.integers(1, min(max_flips, len(switches)) + 1))
    picks = rng.choice(len(switches), size=flips, replace=False)
    return frozenset(switches[int(p)] for p in picks)


def _assert_repair_matches_cold(backend, result, new_tree):
    """Repair ``result`` towards ``new_tree`` and compare to a cold gather."""
    repaired = repair(result, new_tree, backend)
    cold = gather(new_tree, result.requested_budget, result.exact_k, backend)
    assert_tables_equal(cold, repaired)
    assert soar_color(new_tree, repaired) == soar_color(new_tree, cold)
    assert soar_color_batched(new_tree, repaired) == soar_color_batched(new_tree, cold)
    for budget in range(result.budget + 1):
        assert repaired.cost_for_budget(budget) == cold.cost_for_budget(budget)
    return repaired


class TestRepairBitIdentity:
    """Repair equals cold gather on seeded instance streams, both legs."""

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    @pytest.mark.parametrize("exact_k", [False, True])
    def test_instance_stream(self, backend, exact_k):
        rng = np.random.default_rng(90210 + int(exact_k))
        repaired_count = 0
        for tree, budget in instance_stream(
            seed=4590 + int(exact_k), count=30, max_switches=12
        ):
            result = gather(tree, budget, exact_k, backend)
            delta = _random_delta(rng, tree)
            new_tree = tree.with_available(tree.available ^ delta)
            try:
                _assert_repair_matches_cold(backend, result, new_tree)
            except RepairError:
                # Legitimate refusal: the delta moved |Λ| across the
                # requested budget, so the tensor width changed.
                assert min(budget, len(new_tree.available)) != result.budget
                continue
            repaired_count += 1
        assert repaired_count >= 15  # the stream must mostly exercise repair

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_near_tie_stream(self, backend):
        # Symmetric rates and loads make every argmin a tie-break — where
        # a repair replaying the convolution in a different order would
        # diverge first.
        rng = np.random.default_rng(777)
        repaired_count = 0
        for tree, budget in near_tie_stream(seed=9182, count=20, max_switches=12):
            result = gather(tree, budget, backend=backend)
            delta = _random_delta(rng, tree)
            new_tree = tree.with_available(tree.available ^ delta)
            try:
                _assert_repair_matches_cold(backend, result, new_tree)
            except RepairError:
                assert min(budget, len(new_tree.available)) != result.budget
                continue
            repaired_count += 1
        assert repaired_count >= 10

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_chained_repairs_track_cold_gathers(self, backend):
        """Satellite: 50+ chained repair-of-repair steps stay bit-identical.

        The table is only ever repaired (never re-gathered), so any drift
        — a stale breadcrumb, a missed ancestor, an un-repaired don't-care
        cell that later becomes load-bearing — compounds and surfaces as a
        mismatch against the per-step cold gather.
        """
        rng = np.random.default_rng(1123)
        tree = bt_network(32)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=7)
        workload = tree.with_loads(loads)
        budget = 4
        floor = budget + 4  # keep |Λ| clear of the budget so repair stays sound

        solver = Solver(backend=backend)
        table = solver.gather(workload, budget)
        assert table.repair_generation == 0 and table.repaired_from is None

        current = workload
        generation = 0
        for _ in range(60):
            delta = _random_delta(rng, current)
            available = current.available ^ delta
            if len(available) < floor:
                delta = frozenset(delta - current.available)  # adds only
                if not delta:
                    continue
                available = current.available | delta
            previous_fingerprint = table.fingerprint
            table = table.repair(delta)
            current = table.tree
            generation += 1
            assert current.available == available
            assert table.repair_generation == generation
            assert table.repaired_from == previous_fingerprint
            cold = solver.gather(tree.with_loads(loads, available=available), budget)
            assert_tables_equal(cold.result, table.result)
            assert cold.place(budget).blue_nodes == table.place(budget).blue_nodes
            assert cold.place(budget).cost == table.place(budget).cost
        assert table.repair_generation >= 50

    def test_numpy_fallback_leg_bit_identical(self):
        """Under REPRO_NO_COMPILED=1 (a fresh interpreter) the default
        backend is the numpy one and repairs bit-identically."""
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_NO_COMPILED="1")
        script = (
            "import numpy as np\n"
            "from repro.core.engine_compiled import HAVE_COMPILED\n"
            "from repro.core.engine import BACKENDS, DEFAULT_BACKEND, NUMPY_BACKEND, gather, repair\n"
            "from repro.testing import assert_tables_equal, instance_stream\n"
            "assert not HAVE_COMPILED\n"
            "assert BACKENDS == (NUMPY_BACKEND,) and DEFAULT_BACKEND is NUMPY_BACKEND\n"
            "rng = np.random.default_rng(5)\n"
            "checked = 0\n"
            "for tree, budget in instance_stream(seed=31, count=10, max_switches=10):\n"
            "    switches = list(tree.switches)\n"
            "    pick = switches[int(rng.integers(len(switches)))]\n"
            "    new_tree = tree.with_available(tree.available ^ {pick})\n"
            "    result = gather(tree, budget)\n"
            "    try:\n"
            "        repaired = repair(result, new_tree)\n"
            "    except Exception:\n"
            "        continue\n"
            "    cold = gather(new_tree, budget)\n"
            "    assert_tables_equal(cold, repaired)\n"
            "    checked += 1\n"
            "assert checked >= 5\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env=env,
            cwd=Path(__file__).resolve().parents[1],
        )


TENSORS = ("y_blue", "y_red", "splits_blue", "splits_red")


def _blocks(flat, name):
    """A table's blocks of one store: its internal positions' in flat
    order (leaves own none), or its slots in order."""
    index = flat.scol if name.startswith("splits") else flat.col[flat.internal]
    return getattr(flat, name)[index]


def _defined_cells(flat, name):
    """The bytes of the cells a gather defines in one table's blocks.

    A ``y`` block is defined on rows ``0 .. depth`` of its internal
    switch, and a breadcrumb slot on rows ``0 .. depth`` of the node
    owning it; the rows above are never written nor read.
    """
    tensor = _blocks(flat, name)
    rows = np.arange(tensor.shape[1])[None, :]
    if name.startswith("splits"):
        owner_depth = np.repeat(flat.depth, np.maximum(flat.num_children - 1, 0))
        return tensor[rows <= owner_depth[:, None]].tobytes()
    return tensor[rows <= flat.depth[flat.internal][:, None]].tobytes()


def _assert_kernels_write_the_same_cells(flat, dirty):
    """Every backend's ``repair_chain`` on one poisoned copy of ``flat``.

    Each kernel starts from the same node-major copy of the tables with
    the dirty blocks and slots poisoned: every byte must agree
    afterwards, undefined rows included, or one kernel wrote a cell
    another did not.
    """
    slots = dirty_slots(flat, dirty)
    # _blocks lists internal positions in flat order, the cold index's order.
    dirty_blocks = flat.cold_col[dirty[~flat.leaf[dirty]]]
    outputs = set()
    for backend in BACKENDS:
        tensors = {name: _blocks(flat, name) for name in TENSORS}
        for name in ("y_blue", "y_red"):
            tensors[name][dirty_blocks] = np.nan
        for name in ("splits_blue", "splits_red"):
            tensors[name][slots] = -7
        start = dataclasses.replace(
            flat,
            **tensors,
            col=flat.cold_col,
            scol=flat.cold_scol,
            store=None,
        )
        backend.repair_chain(start, dirty)
        outputs.add(b"".join(tensors[name].tobytes() for name in TENSORS))
    assert len(outputs) == 1


def _assert_chain_kernels_match_cold(result, new_tree):
    """Repair with every backend's ``repair_chain`` kernel and byte-compare
    them with each other and with a cold gather."""
    repaired = [repair(result, new_tree, backend).flat for backend in BACKENDS]
    cold = gather(new_tree, result.requested_budget, exact_k=result.exact_k).flat
    for name in TENSORS:
        assert len({_defined_cells(flat, name) for flat in repaired}) == 1
        assert _defined_cells(repaired[-1], name) == _defined_cells(cold, name)
    delta = result.flat.tree.available ^ new_tree.available
    dirty = dirty_ancestor_positions(new_tree, cold.index, delta)
    _assert_kernels_write_the_same_cells(repaired[-1], dirty)
    return repaired[-1]


def _dirtying_exactly(tree, index, target):
    """A delta whose dirty ancestor chains hold exactly ``target`` switches.

    Switches are added in flat order while the dirty count stays within
    ``target``; a switch whose parent is already dirty adds exactly one,
    so the count always lands on the target.
    """
    delta: set = set()
    for switch in sorted(index, key=index.get):
        grown = len(dirty_ancestor_positions(tree, index, delta | {switch}))
        if grown <= target:
            delta.add(switch)
        if grown == target:
            break
    return frozenset(delta)


class TestRepairChainKernels:
    """The compiled and numpy ``repair_chain`` kernels against a cold
    gather, tensor byte for tensor byte, on streams and edge deltas."""

    @pytest.mark.parametrize("exact_k", [False, True])
    @pytest.mark.parametrize("stream", [instance_stream, near_tie_stream])
    def test_streams(self, stream, exact_k):
        rng = np.random.default_rng(6021 + int(exact_k))
        repaired_count = 0
        for tree, budget in stream(seed=3303 + int(exact_k), count=30, max_switches=16):
            result = gather(tree, budget, exact_k=exact_k)
            delta = _random_delta(rng, tree, max_flips=4)
            new_tree = tree.with_available(tree.available ^ delta)
            try:
                _assert_chain_kernels_match_cold(result, new_tree)
            except RepairError:
                assert min(budget, len(new_tree.available)) != result.budget
                continue
            repaired_count += 1
        assert repaired_count >= 15

    @pytest.fixture()
    def workload(self):
        tree = bt_network(64)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=17)
        available = frozenset(sorted(tree.switches)[::3]) | {tree.root}
        return tree.with_loads(loads, available=available)

    @staticmethod
    def _subtree_leaves(tree, node):
        return frozenset(s for s in tree.subtree(node) if not tree.children(s))

    def _edge_deltas(self, tree, index):
        inner = tree.children(tree.children(tree.root)[0])[1]
        return {
            "root": frozenset({tree.root}),
            "subtree-leaves": self._subtree_leaves(tree, inner),
            "half-tree": _dirtying_exactly(tree, index, tree.num_switches // 2),
        }

    @pytest.mark.parametrize("exact_k", [False, True])
    @pytest.mark.parametrize("edge", ["root", "subtree-leaves", "half-tree"])
    def test_edge_deltas(self, workload, edge, exact_k):
        result = gather(workload, 6, exact_k=exact_k)
        delta = self._edge_deltas(workload, result.flat.index)[edge]
        if edge == "half-tree":
            dirty = dirty_ancestor_positions(workload, result.flat.index, delta)
            assert dirty.size == workload.num_switches // 2
        _assert_chain_kernels_match_cold(result, workload.with_available(workload.available ^ delta))

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_lost_blue_eligibility_zeroes_stale_breadcrumbs(self, workload, exact_k):
        result = gather(workload, 6, exact_k=exact_k)
        flat = result.flat
        node = workload.root  # available, two children: one breadcrumb slot
        position = flat.index[node]
        slot = int(flat.stage_offset[position])
        rows = int(flat.depth[position]) + 1
        assert flat.splits_blue[flat.scol[slot], :rows].any()
        repaired = _assert_chain_kernels_match_cold(
            result, workload.with_available(workload.available - {node})
        )
        assert not repaired.splits_blue[repaired.scol[slot], :rows].any()
        assert flat.splits_blue[flat.scol[slot], :rows].any()  # the source is untouched

    @pytest.mark.parametrize("exact_k", [False, True])
    def test_budget_one(self, workload, exact_k):
        result = gather(workload, 1, exact_k=exact_k)
        assert result.budget == 1
        rng = np.random.default_rng(41)
        for _ in range(5):
            delta = _random_delta(rng, workload, max_flips=6)
            _assert_chain_kernels_match_cold(
                result, workload.with_available(workload.available ^ delta)
            )

    @needs_compiled
    def test_compiled_kernel_is_the_c_one(self):
        assert COMPILED_BACKEND.repair_chain is engine_compiled.repair_chain
        assert COMPILED_BACKEND.repair_chain is not NUMPY_BACKEND.repair_chain


def _flip_first(workload, count):
    """The availability delta flipping the first ``count`` switches."""
    return frozenset(sorted(workload.switches)[:count])


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
class TestNodeMajorLayout:
    """Each switch's table and each breadcrumb slot is one contiguous block
    of a store, named by the table's column and slot indices."""

    @pytest.fixture()
    def workload(self):
        tree = bt_network(32)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=23)
        available = frozenset(sorted(tree.switches)[::2]) | {tree.root}
        return tree.with_loads(loads, available=available)

    def _cold_and_repaired(self, backend, workload):
        result = gather(workload, 5, backend=backend)
        delta = _flip_first(workload, 3)
        repaired = repair(result, workload.with_available(workload.available ^ delta), backend)
        return result, repaired

    def test_blocks_are_contiguous(self, backend, workload):
        block = (workload.height + 1, 6)
        # A cold gather owns one block per internal switch and num_stages
        # slots, in order; leaves own none.
        fresh = gather(workload, 5, backend=backend).flat
        internal = fresh.internal.size
        assert internal == sum(1 for s in workload.switches if workload.children(s))
        assert fresh.y_red.shape == fresh.y_blue.shape == (internal, *block)
        assert fresh.splits_red.shape == fresh.splits_blue.shape == (fresh.num_stages, *block)
        assert fresh.col[fresh.internal].tolist() == list(range(internal))
        assert (fresh.col[fresh.leaf] == -1).all()
        assert fresh.scol.tolist() == list(range(fresh.num_stages))
        cold, repaired = self._cold_and_repaired(backend, workload)
        for flat in (fresh, cold.flat, repaired.flat):
            assert flat.y_red.shape == flat.y_blue.shape
            assert flat.y_red.shape[1:] == block
            assert flat.splits_red.shape == flat.splits_blue.shape
            assert flat.splits_red.shape[1:] == block
            assert flat.col.shape == (workload.num_switches,)
            assert flat.scol.shape == (flat.num_stages,)
            for name in TENSORS:
                tensor = getattr(flat, name)
                assert tensor.flags.c_contiguous
                index = flat.scol if name.startswith("splits") else flat.col[flat.internal]
                assert len(set(index.tolist())) == index.size  # one block each
                for position in index.tolist():
                    assert tensor[position].shape == block
                    assert tensor[position].flags.c_contiguous

    def test_node_tables_are_views(self, backend, workload):
        for result in self._cold_and_repaired(backend, workload):
            flat = result.flat
            reference = soar_gather(flat.tree, 5).tables
            for position in range(workload.num_switches):
                tables = flat.node_tables(position)
                rows = int(flat.depth[position]) + 1
                if flat.leaf[position]:
                    # A leaf owns no block: its tables are the closed form,
                    # equal to the reference walk's leaf tables.
                    expected = reference[flat.order[position]]
                    for name in ("x", "y_blue", "y_red", "choice"):
                        view = getattr(tables, name)
                        assert view.flags.c_contiguous and view.shape == (rows, 6)
                        assert view.tobytes() == getattr(expected, name).astype(view.dtype).tobytes()
                        for store in (flat.y_blue, flat.y_red):
                            assert not np.shares_memory(view, store)
                    assert tables.splits_blue == tables.splits_red == []
                    continue
                for name in ("y_blue", "y_red"):
                    view = getattr(tables, name)
                    assert view.flags.c_contiguous and view.shape == (rows, 6)
                    assert np.shares_memory(view, getattr(flat, name)[flat.col[position]])
                for name in ("splits_blue", "splits_red"):
                    base = int(flat.stage_offset[position])
                    for stage, view in enumerate(getattr(tables, name)):
                        assert view.flags.c_contiguous and view.shape == (rows, 6)
                        slot = flat.scol[base + stage]
                        assert np.shares_memory(view, getattr(flat, name)[slot])

    def test_repair_shares_clean_blocks_and_keeps_the_source(self, backend, workload):
        result = gather(workload, 5, backend=backend)
        source = result.flat
        before = {name: _blocks(source, name) for name in TENSORS}
        delta = _flip_first(workload, 3)
        repaired = repair(result, workload.with_available(workload.available ^ delta), backend)
        dirty = set(dirty_ancestor_positions(workload, source.index, delta).tolist())
        assert 0 < len(dirty) < workload.num_switches
        dirty_slot_set = set(dirty_slots(source, np.array(sorted(dirty))).tolist())
        assert dirty_slot_set == {
            int(source.stage_offset[v]) + stage
            for v in dirty
            for stage in range(max(int(source.num_children[v]) - 1, 0))
        }
        new = repaired.flat
        internal = source.internal.tolist()
        for name in TENSORS:
            splits = name.startswith("splits")
            mine, theirs = (new.scol, source.scol) if splits else (new.col, source.col)
            tensor, original = getattr(new, name), getattr(source, name)
            assert _blocks(source, name).tobytes() == before[name].tobytes()
            touched = dirty_slot_set if splits else dirty
            owners = range(mine.size) if splits else internal
            source_blocks = set(theirs[owners].tolist())
            for at, entry in enumerate(owners):
                block, source_block = tensor[mine[entry]], original[theirs[entry]]
                if entry in touched:
                    # A fresh block: none of the source's blocks.
                    assert not np.shares_memory(block, source_block)
                    assert int(mine[entry]) not in source_blocks
                else:
                    assert np.shares_memory(block, source_block)
                    assert block.tobytes() == before[name][at].tobytes()

    def test_source_unchanged_across_a_repair_chain(self, backend, workload):
        rng = np.random.default_rng(2718)
        table = Solver(backend=backend).gather(workload, 5)
        history = []
        for _ in range(50):
            history.append(
                (table, {name: _blocks(table.result.flat, name) for name in TENSORS})
            )
            for _attempt in range(20):
                try:
                    table = table.repair(_random_delta(rng, table.tree, max_flips=4))
                    break
                except RepairError:
                    continue
        for earlier, snapshot in history:
            for name in TENSORS:
                assert _blocks(earlier.result.flat, name).tobytes() == snapshot[name].tobytes()
        cold = Solver(backend=backend).gather(table.tree, 5)
        assert_tables_equal(cold.result, table.result)

    def test_dropped_repairs_return_their_blocks(self, backend, workload):
        table = Solver(backend=backend).gather(workload, 5)
        rng = np.random.default_rng(99)
        peak = None
        for cycle in range(40):
            repaired = table.repair(_random_delta(rng, workload, max_flips=3))
            store = repaired.result.flat.store
            del repaired
            columns, slots = store.live_blocks()
            # Only the source is live again once the repaired table is gone:
            # one block per internal switch (leaves own none).
            internal = workload.num_switches - int(table.result.flat.leaf.sum())
            assert (columns, slots) == (internal, table.result.flat.num_stages)
            capacity = len(store.columns.refs)
            if cycle == 0:
                peak = capacity
            assert capacity == peak  # freed blocks are reused, the store stays put

    def test_dropping_a_lineage_frees_its_store(self, backend, workload):
        table = Solver(backend=backend).gather(workload, 5)
        child = table.repair(_flip_first(workload, 2))
        grandchild = child.repair(_flip_first(workload, 5) - _flip_first(workload, 2))
        view = grandchild.result.tables[workload.root].y_red
        expected = view.copy()
        store = weakref.ref(grandchild.result.flat.store)
        del table, child, grandchild
        gc.collect()
        assert store() is not None  # a view still pins its table's blocks
        assert view.tobytes() == expected.tobytes()
        del view
        gc.collect()
        assert store() is None

    def test_views_outlive_their_table_unchanged(self, backend, workload):
        table = Solver(backend=backend).gather(workload, 5)
        rng = np.random.default_rng(7)
        repaired = table.repair(_flip_first(workload, 3))
        views = [repaired.result.tables[node].y_blue for node in workload.switches]
        expected = [view.copy() for view in views]
        del repaired
        gc.collect()
        for _ in range(10):  # every later claim reuses the free blocks only
            table.repair(_random_delta(rng, workload, max_flips=6))
        for view, copy in zip(views, expected):
            assert view.tobytes() == copy.tobytes()

    def test_threaded_repair_while_tracing(self, backend, workload):
        """One thread repairs from a table while another traces it."""
        def answers(table):
            return [
                (p.blue_nodes, p.cost, p.predicted_cost)
                for p in table.sweep(range(6)).values()
            ]

        solver = Solver(backend=backend)
        table = solver.gather(workload, 5)
        expected = answers(table)
        rng = np.random.default_rng(4242)
        deltas = [_random_delta(rng, workload, max_flips=5) for _ in range(30)]
        failures: list = []
        repaired: list = []

        def trace():
            try:
                for _ in range(60):
                    assert answers(table) == expected
            except BaseException as error:  # surfaced in the main thread
                failures.append(error)

        def repair_all():
            try:
                for delta in deltas:
                    try:
                        repaired.append(table.repair(delta))
                    except RepairError:
                        continue
            except BaseException as error:
                failures.append(error)

        threads = [threading.Thread(target=trace), threading.Thread(target=repair_all)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(repaired) >= 20
        for result in repaired:
            cold = solver.gather(result.tree, 5)
            assert_tables_equal(cold.result, result.result)
            assert answers(result) == answers(cold)


def _no_cyclic_garbage(call, times=100):
    """Run ``call`` ``times`` times with the collector off; the cyclic
    objects it left behind."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(times):
            call()
        return gc.collect()
    finally:
        gc.enable()


@needs_compiled
class TestKernelBindings:
    """The compiled kernels read bindings made once per layout and table;
    a store growth re-pins a table and binds it anew."""

    @pytest.fixture()
    def workload(self):
        tree = bt_network(32)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=31)
        return tree.with_loads(loads)

    def test_repair_chain_leaves_no_cyclic_garbage(self, workload):
        flat = gather(workload, 5, backend=COMPILED_BACKEND).flat
        delta = _flip_first(workload, 3)
        dirty = dirty_ancestor_positions(workload, flat.index, delta)
        for positions in (flat.internal, dirty, dirty[:0]):
            assert _no_cyclic_garbage(
                lambda: engine_compiled.repair_chain(flat, positions)
            ) == 0

    def test_repairs_across_store_growth_match_cold_gathers(self, workload):
        rng = np.random.default_rng(1618)
        solver = Solver(backend=COMPILED_BACKEND)
        source = solver.gather(workload, 5)
        flat = source.result.flat
        kept, capacities, rebinds = [], set(), set()
        for _ in range(40):
            # Keeping every repair alive makes the store grow again and
            # again; each growth re-pins the source and binds it anew.
            try:
                kept.append(source.repair(_random_delta(rng, workload, max_flips=6)))
            except RepairError:
                continue
            capacities.add(len(flat.store.columns.refs))
            rebinds.add(id(flat.table_args))
            assert flat.table_args.arrays["y_blue"] is flat.y_blue
        assert len(capacities) >= 3 and len(rebinds) >= 3
        for table in [source, *kept]:
            cold = solver.gather(table.tree, 5)
            assert_tables_equal(cold.result, table.result)
            assert [
                (p.blue_nodes, p.cost, p.predicted_cost) for p in table.sweep(range(6)).values()
            ] == [(p.blue_nodes, p.cost, p.predicted_cost) for p in cold.sweep(range(6)).values()]

    def test_repinned_source_traces_the_same_bytes_while_swept(self, workload):
        solver = Solver(backend=COMPILED_BACKEND)
        table = solver.gather(workload, 5)
        flat = table.result.flat
        expected = COMPILED_BACKEND.trace(table.tree, table.result, range(6))[1].tobytes()
        rng = np.random.default_rng(5150)
        deltas = [_random_delta(rng, workload, max_flips=5) for _ in range(40)]
        bindings = {id(flat.table_args)}
        failures: list = []
        kept: list = []
        done = threading.Event()

        def sweep():
            try:
                while not done.is_set():
                    masks = COMPILED_BACKEND.trace(table.tree, table.result, range(6))[1]
                    assert masks.tobytes() == expected
                    bindings.add(id(flat.table_args))
            except BaseException as error:  # surfaced in the main thread
                failures.append(error)

        def repair_all():
            try:
                for delta in deltas:
                    try:
                        kept.append(table.repair(delta))
                    except RepairError:
                        continue
            except BaseException as error:
                failures.append(error)
            finally:
                done.set()

        threads = [threading.Thread(target=sweep), threading.Thread(target=repair_all)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(bindings) >= 2  # the sweeps crossed a re-pin
        assert flat.y_blue.base.array is flat.store.columns.blue
        masks = COMPILED_BACKEND.trace(table.tree, table.result, range(6))[1]
        assert masks.tobytes() == expected


class TestRepairRefusals:
    """Unsound repairs must raise RepairError, never return wrong tables."""

    @pytest.fixture()
    def workload(self):
        tree = bt_network(8)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=3)
        return tree.with_loads(loads)

    def test_reference_engine_has_no_repairer(self, workload):
        result = soar_gather(workload, 2)
        new_tree = workload.with_available(
            workload.available - {next(iter(sorted(workload.available)))}
        )
        with pytest.raises(RepairError, match="no flat tensors"):
            repair(result, new_tree)

    def test_repairer_registry_matches_flat_backends(self, workload):
        # Every backend repairs the flat tables it gathers.
        switch = sorted(workload.available)[0]
        new_tree = workload.with_available(workload.available - {switch})
        for backend in BACKENDS:
            repaired = repair(gather(workload, 2, backend=backend), new_tree, backend)
            assert_tables_equal(gather(new_tree, 2, backend=backend), repaired)

    def test_load_change_refused(self, workload):
        result = gather(workload, 2)
        leaves = [s for s in workload.switches if not workload.children(s)]
        patched = workload.with_loads(
            {**workload.loads, leaves[0]: workload.loads[leaves[0]] + 1}
        )
        with pytest.raises(RepairError, match="load"):
            repair(result, patched)

    def test_structure_change_refused(self, workload):
        result = gather(workload, 2)
        other = bt_network(16)
        other = other.with_loads(
            sample_leaf_loads(other, PowerLawLoadDistribution(), rng=3)
        )
        with pytest.raises(RepairError, match="structure"):
            repair(result, other)

    def test_effective_budget_shift_refused(self, workload):
        # |Λ| = 3 with requested budget 5 → effective 3; removing one more
        # available switch narrows the tensor width, so repair must refuse.
        small = workload.with_available(sorted(workload.available)[:3])
        result = gather(small, 5)
        assert result.budget == 3
        shrunk = small.with_available(sorted(small.available)[:2])
        with pytest.raises(RepairError, match="budget"):
            repair(result, shrunk)

    def test_non_switch_delta_refused(self, workload):
        result = gather(workload, 2)
        with pytest.raises(RepairError, match="switch"):
            dirty_ancestor_positions(
                workload, result.flat.index, {"no-such-switch"}
            )

    def test_walk_is_remembered_for_the_same_delta(self, workload):
        index = workload.flat_layout().index
        delta = frozenset(sorted(workload.switches)[:2])
        first = dirty_ancestor_positions(workload, index, delta)
        assert not first.flags.writeable
        # A same-structure network walking the same delta object reuses it.
        other = workload.with_available(workload.available ^ delta)
        assert dirty_ancestor_positions(other, index, delta) is first
        # An equal but different (or mutable) delta walks afresh.
        for copy in (frozenset(set(delta)), set(delta)):
            again = dirty_ancestor_positions(workload, index, copy)
            assert again is not first and again.tolist() == first.tolist()

    def test_table_repair_with_unknown_switch(self, workload):
        table = Solver().gather(workload, 2)
        with pytest.raises(AvailabilityError):
            table.repair({"no-such-switch"})


class TestColdGatherLazyTables:
    """Cold gathers hand out the same lazy mapping as repairs."""

    @pytest.fixture()
    def workload(self):
        tree = bt_network(16)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=5)
        available = frozenset(sorted(tree.switches)[::2])
        return tree.with_loads(loads, available=available)

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    @pytest.mark.parametrize("exact_k", [False, True])
    def test_nothing_materialized_until_accessed(self, workload, backend, exact_k):
        result = gather(workload, 3, exact_k, backend)
        tables = result.tables
        assert isinstance(tables, LazyNodeTables)
        assert dict.__len__(tables) == 0
        # The colour trace and the cost lookup read the flat tensors and the
        # root alone.
        soar_color_batched(workload, result)
        result.cost_for_budget(2)
        assert dict.__len__(tables) == 1
        assert_tables_equal(soar_gather(workload, 3, exact_k=exact_k), result)
        assert dict.__len__(tables) == workload.num_switches


class TestLazyNodeTables:
    """The repaired result's table mapping materializes views on demand."""

    @pytest.fixture()
    def repaired(self):
        tree = bt_network(8)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=11)
        workload = tree.with_loads(loads)
        result = gather(workload, 3)
        switch = sorted(workload.available)[0]
        new_tree = workload.with_available(workload.available ^ {switch})
        return repair(result, new_tree), gather(new_tree, 3)

    def test_is_lazy_and_complete(self, repaired):
        lazy, cold = repaired
        tables = lazy.tables
        assert isinstance(tables, LazyNodeTables)
        assert dict.__len__(tables) == 0  # nothing materialized up front
        assert len(tables) == len(cold.tables)
        assert set(tables) == set(cold.tables)

    def test_access_materializes_and_caches(self, repaired):
        lazy, _ = repaired
        tables = lazy.tables
        node = lazy.root
        first = tables[node]
        assert dict.__len__(tables) == 1
        assert tables[node] is first  # cached, not rebuilt

    def test_get_and_contains(self, repaired):
        lazy, _ = repaired
        tables = lazy.tables
        node = lazy.root
        assert node in tables
        assert "no-such-node" not in tables
        assert tables.get("no-such-node") is None
        assert tables.get("no-such-node", "sentinel") == "sentinel"
        assert tables.get(node) is tables[node]

    def test_views_match_cold_tables(self, repaired):
        lazy, cold = repaired
        assert_tables_equal(cold, lazy)

    def test_mapping_protocol_materializes(self, repaired):
        lazy, cold = repaired
        tables = lazy.tables
        assert sorted(tables.keys()) == sorted(cold.tables.keys())
        assert len(list(tables.values())) == len(cold.tables)
        assert {k for k, _ in tables.items()} == set(cold.tables)
        # Equality against a same-valued dict works via the dict identity
        # shortcut once materialized.
        assert tables == dict(tables.items())
