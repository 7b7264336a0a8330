"""Backends: the kernels SOAR's three hot loops run on, and the gather drivers.

The reference implementation in :mod:`repro.core.gather` follows Algorithm 3
closely: it walks the post-order with a Python loop and builds one
:class:`~repro.core.gather.NodeTables` per node, combining children one at a
time.  That structure is ideal for studying the algorithm (tests use it as
ground truth) but the per-node Python work dominates the running time on
the larger instances of Figures 9 and 10.

The drivers in this module compute the very same dynamic program on
node-major ``(node, l, i)`` blocks over the structure's
:class:`~repro.core.flat.FlatLayout` — node order, child lists, breadcrumb
slots and the ``path_rho`` table, built once per weighted tree and shared
by every gather on it.  Each switch's ``(height + 1) x (k + 1)`` table,
and each breadcrumb slot, is one contiguous block of a store, named by
the tables' column and slot indices (``y_red[col[p]]``,
``splits_red[scol[slot]]``), so a node's DP reads its children's blocks
and writes its own as unit-stride runs.  A single kernel does all of the
arithmetic:
``repair_chain(flat, dirty)`` recomputes the ``dirty`` columns of
the tables in place, deepest level first.  A cold gather (:func:`gather`)
is that call with every internal switch dirty over freshly allocated
tables under the cold index; a delta repair (:func:`repair`) is the same
call with only the flipped switches and their ancestors dirty, on tables
that share every clean block with their source and own fresh blocks for
the dirty ones (:func:`repro.core.flat.derive_tables`).  Leaves own no
block: a leaf's column is a closed form of its load, ``path_rho`` column
and Λ membership, which a stage computes where it reads a leaf child.
The per-node tables are never materialized up front: the result maps
nodes lazily onto slices of the stores (see below).

A :class:`Backend` bundles that kernel with the two that answer queries
from the tables — the colour ``trace`` of a list of budgets and the
Eq. (1) ``costs`` of the traced placements.  There are two:

:data:`NUMPY_BACKEND` (``"numpy"``)
    ``repair_chain`` level by level, with the ``mCost``
    (min,+)-convolution batched across every node of a level that has an
    ``m``-th child and its split range capped by the children's subtree
    availability (:func:`_batched_combine`, which runs on the level's
    blocks gathered with ``y[col[nodes]]`` and the node axis moved last);
    the level-batched colour
    trace per budget (:func:`repro.core.color.numpy_blue_masks`) and the
    level-batched cost kernel per placement
    (:func:`repro.core.cost.utilization_costs_flat`).

:data:`COMPILED_BACKEND` (``"compiled"``)
    The same three loops as one C call each (``_gather_kernels.c``, built
    on demand and called through ``ctypes``, which releases the GIL for
    the call; :mod:`repro.core.engine_compiled`).  ``None`` when no C
    compiler is available or ``REPRO_NO_COMPILED`` is set.

:data:`DEFAULT_BACKEND` is the compiled one when it built and the numpy
one otherwise, picked once at import, so a backend's name always says
which kernels ran.  Per element the arithmetic (and its floating-point
evaluation order) is identical across both backends and the reference,
including the ascending-``j`` tie-breaking of the convolution argmin, so
they produce **bit-identical** tables, traceback breadcrumbs, placements
and costs.  The drivers hand out their output as a
:class:`~repro.core.flat.LazyNodeTables` mapping: each node's ordinary
:class:`~repro.core.gather.NodeTables` is built from views into the flat
tensors the first time it is looked up, so
:func:`repro.core.color.soar_color` traces the result unchanged while the
backends' traces and ``cost_for_budget`` never pay for the ``n - 1`` nodes
they do not read.  Cold gathers and delta repairs therefore produce
artifacts of the same shape.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import engine_compiled
from repro.core.color import compiled_blue_masks, numpy_blue_masks
from repro.core.cost import utilization_costs_compiled, utilization_costs_flat
from repro.core.flat import (
    FlatLayout,
    FlatTables,
    LazyNodeTables,
    allocate_tables,
    derive_tables,
    dirty_ancestor_positions,
    dirty_level_runs,
)
from repro.core.gather import GatherResult, normalize_budget
from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import RepairError


@dataclass(frozen=True)
class Backend:
    """The kernels behind SOAR's three hot loops, bit-identical across backends.

    ``repair_chain(flat, dirty)``
        Every internal ``dirty`` column of the ``flat`` tables — stage-1
        seeding, each stage's red and blue convolution, breadcrumbs —
        rewritten in place (at the blocks ``flat.col`` and ``flat.scol``
        name) from ``flat.avail``, ``flat.load`` and the children's
        current columns, deepest first.  ``dirty`` is ascending flat
        positions closed under ancestors: every internal switch for a
        cold gather, a delta's ancestor chains for a repair.  Leaves own
        no block and dirty ones are skipped: a stage whose child is a
        leaf computes that child's x rows from the closed form
        (:func:`repro.core.gather.leaf_tables` under ``flat.exact_k``,
        the only input the budget semantics reach).
    ``trace(tree, gathered, budgets)``
        SOAR-Color for every budget of the list: the traced
        :class:`~repro.core.flat.FlatTables` and a ``(len(budgets), n)``
        uint8 blue mask per budget in their flat order.
    ``costs(tree, masks, model)``
        Eq. (1) of every mask row over ``tree``'s loads, as a float64
        array; a blue node outside ``tree``'s Λ raises
        :class:`~repro.exceptions.PlacementError`.

    Every implementation must perform the identical per-element IEEE-754
    operations in the identical order — the differential suite holds both
    backends and the reference walks to bit-identical outputs.
    """

    name: str
    repair_chain: Callable[..., None] = field(repr=False)
    trace: Callable[..., tuple] = field(repr=False)
    costs: Callable[..., np.ndarray] = field(repr=False)


@functools.lru_cache(maxsize=64)
def _small_batch_sources(
    width: int, splits: int, offset: int
) -> tuple[np.ndarray, np.ndarray]:
    """Source column and invalid-candidate mask of every ``(split, column)``.

    Candidate ``(j, i)`` of :func:`_combine_small_batch` reads column
    ``i - j`` of ``previous``; it exists only when ``i - j >= offset`` (a
    blue parent keeps one unit for itself).  Invalid sources are clamped
    to column 0 so the gather stays in bounds; the mask overwrites them.
    """
    source = np.arange(width)[None, :] - np.arange(splits)[:, None]
    invalid = source < offset
    source[invalid] = 0
    # Shared by every caller through the cache: freeze them.
    source.setflags(write=False)
    invalid.setflags(write=False)
    return source, invalid[None, :, :, None]


def _combine_small_batch(
    previous: np.ndarray,
    child_row: np.ndarray,
    budget: int,
    blue: bool,
    j_max: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked-candidate variant of :func:`_batched_combine` for tiny batches.

    The sequential split loop of the batched kernel pays ~6 numpy
    dispatches per ``j``; on the big level slabs of a cold gather that
    overhead amortizes over hundreds of node columns, but the delta-repair
    path calls the kernel with a handful of dirty nodes per level, where
    dispatch dominates the arithmetic.  This variant materializes every
    candidate split in one ``(H, J, k + 1, B)`` stack with a single gather
    and add (invalid cells ``+inf``) and reduces with one min/argmin pair.

    Bit-identity with the sequential loop: every candidate value is the
    same ``np.add`` of the same operands; the one-shot minimum of a
    NaN-free, ``-0.0``-free candidate set is the exact same float the
    running ``np.minimum`` converges to (float min is exact, order-free);
    and ``np.argmin``'s first-minimum rule reproduces the loop's
    smallest-split strict-improvement tie-break, including split 0 for
    all-``inf`` columns.
    """
    if j_max is None:
        j_max = budget
    splits = min(budget, j_max) + 1
    source, invalid = _small_batch_sources(budget + 1, splits, 1 if blue else 0)
    stacked = previous[:, source, :] + child_row[:, :splits, None, :]
    np.copyto(stacked, np.inf, where=invalid)
    best = stacked.min(axis=1)
    best_split = stacked.argmin(axis=1).astype(np.int32)
    return best, best_split


def _batched_combine(
    previous: np.ndarray,
    child_row: np.ndarray,
    budget: int,
    blue: bool,
    j_max: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``mCost`` (min,+)-convolution over the budget axis.

    ``previous`` has shape ``(H, k + 1, B)`` holding ``Y^{m-1}`` for ``B``
    same-depth nodes; ``child_row`` has shape ``(H, k + 1, B)`` (red parent:
    child indexed at ``l + 1``) or ``(1, k + 1, B)`` (blue parent: child
    always sees ``l = 1``, broadcast over the parameter axis).  Mirrors
    :func:`repro.core.gather._combine_child` element for element — same
    iteration order over the split ``j``, same strict-improvement update —
    batched over the trailing node axis.

    The running minimum is maintained with ``np.minimum`` and the argmin
    with integer mask arithmetic rather than masked assignment: with the
    node axis contiguous these are straight SIMD streams, several times
    faster than ``np.copyto(..., where=)``.

    ``j_max`` optionally caps the split range at the number of available
    switches inside the child subtree.  Larger splits cannot strictly
    improve any entry — under at-most-k semantics the child columns beyond
    ``j_max`` are exact copies of column ``j_max`` while the ``previous``
    side is non-increasing in the budget, and under exactly-k they are
    ``+inf`` — so the capped convolution is bit-identical to the full one,
    including the stored argmin (the uncapped candidates never win the
    strict-improvement tie-break).

    Tiny batches (a few dirty nodes during a delta repair, the near-root
    levels of a cold gather) are routed to the bit-identical
    :func:`_combine_small_batch`, which trades the per-split dispatch
    overhead for one stacked min/argmin reduction.
    """
    if previous.shape[0] * previous.shape[2] <= 64:
        return _combine_small_batch(previous, child_row, budget, blue, j_max)
    height, width, batch = previous.shape[0], budget + 1, previous.shape[2]
    if j_max is None:
        j_max = budget
    best = np.empty((height, width, batch), dtype=np.float64)
    best_split = np.zeros((height, width, batch), dtype=np.int32)

    # j = 0 seeds the running minimum directly (split 0, like the reference's
    # first strict improvement over the +inf initialization).
    start0 = 1 if blue else 0
    if start0 > budget:
        best.fill(np.inf)
        return best, best_split
    best[:, :start0] = np.inf
    np.add(previous[:, start0:], child_row[:, 0:1], out=best[:, start0:])

    candidate = np.empty((height, width, batch), dtype=np.float64)
    improved = np.empty((height, width, batch), dtype=bool)
    scratch = np.empty((height, width, batch), dtype=np.int32)
    for j in range(1, min(budget, j_max) + 1):
        start = j + 1 if blue else j  # blue parent keeps one unit for itself
        if start > budget:
            break
        cand = candidate[:, : width - start]
        np.add(
            previous[:, start - j : width - j],
            child_row[:, j : j + 1],
            out=cand,
        )
        target = best[:, start:]
        # Strictly-better mask first (ties keep the smaller split j), then a
        # branch-free minimum and argmin update.
        better = np.less(cand, target, out=improved[:, : width - start])
        np.minimum(target, cand, out=target)
        split_target = best_split[:, start:]
        delta = scratch[:, : width - start]
        np.subtract(np.int32(j), split_target, out=delta)
        np.multiply(delta, better, out=delta)
        np.add(split_target, delta, out=split_target)
    return best, best_split


def _leaf_x_rows(
    path: np.ndarray, load: np.ndarray, avail: np.ndarray, width: int, exact_k: bool
) -> np.ndarray:
    """The x rows of leaves, ``(rows, width, L)``, node axis last.

    ``path`` is the leaves' ``path_rho`` rows ``(rows, L)``, ``load``
    their loads as float64 and ``avail`` their Λ membership.  The result
    is ``np.minimum(y_red, y_blue)`` of the closed form
    (:func:`repro.core.gather.leaf_tables`): red is ``path * load`` (every
    column under at-most-k, column 0 under exactly-k), blue is ``path`` on
    column 1 (exactly-k) or columns ``1 .. k`` (at-most-k) of an available
    leaf, +inf elsewhere.  The one arithmetic operation is that same
    multiply; the rest selects between its product, ``path`` and +inf
    exactly as the elementwise minimum of NaN-free tables does.
    """
    rows, count = path.shape
    red = path * load
    x = np.empty((rows, width, count), dtype=np.float64)
    x[:, 0] = red
    if exact_k:
        x[:, 1:2] = np.where(avail, path, np.inf)[:, None, :]
        x[:, 2:] = np.inf
    else:
        x[:, 1:] = np.where(avail, np.minimum(red, path), red)[:, None, :]
    return x


def _child_x_rows(
    flat: FlatTables, load: np.ndarray, children: np.ndarray, rows: int
) -> np.ndarray:
    """The x rows ``1 .. rows`` of the ``children`` (flat positions).

    ``x = min(y_red, y_blue)`` of each child, shape ``(rows, k + 1, B)``:
    written with the node axis last, the layout :func:`_batched_combine`
    batches over.  An internal child's rows come from its store block; a
    leaf owns none, so its rows are the closed form (:func:`_leaf_x_rows`)
    over its ``path_rho`` column, its ``load`` (float64, flat order) and Λ
    membership.  One path serves every stage: a level of one kind (every
    level of a BT) leaves the other kind's selection empty, and a level
    mixing both (scale-free and generic trees) is still one array.
    """
    y_blue, y_red = flat.y_blue, flat.y_red
    width = y_red.shape[2]
    is_leaf = flat.leaf[children]
    leaves, inner = children[is_leaf], flat.col[children[~is_leaf]]
    child_x = np.empty((rows, width, children.size), dtype=np.float64)
    by_node = child_x.transpose(2, 0, 1)
    by_node[is_leaf] = _leaf_x_rows(
        flat.path_rho[1 : rows + 1, leaves], load[leaves], flat.avail[leaves], width, flat.exact_k
    ).transpose(2, 0, 1)
    by_node[~is_leaf] = np.minimum(y_red[inner, 1 : rows + 1], y_blue[inner, 1 : rows + 1])
    return child_x


def subtree_available_counts(layout: FlatLayout, avail: np.ndarray) -> np.ndarray:
    """``|Λ ∩ T_v|`` for every node, in the flat node order.

    ``avail`` is Λ membership in ``layout``'s order.  Counts accumulate
    child -> parent one level slab at a time, deepest first, so every
    count is final before it folds into its parent; the root's level is
    never scattered (its parent is the destination), and the root's count
    is exactly ``|Λ|``.  The numpy ``repair_chain`` caps each stage's
    split range at the largest count among that stage's children (see
    :func:`_batched_combine`).
    """
    counts = avail.astype(np.int64)
    for start, stop in layout.level_slices[:0:-1]:
        np.add.at(counts, layout.parent[start:stop], counts[start:stop])
    return counts


def _repair_chain_numpy(flat: FlatTables, dirty: np.ndarray) -> None:
    """Recompute the ``dirty`` columns of ``flat`` in place, level by level.

    The numpy ``repair_chain`` kernel (see :class:`Backend`): the dirty
    internal nodes are run level-batched from the deepest level up, each
    stage's convolution batched over every node of the level that has
    that many children.  Dirty leaves own no block and are skipped; a
    stage reads a leaf child's x rows from the closed form
    (:func:`_child_x_rows`).  Blocks are read and written through
    ``flat.col`` / ``flat.scol``.
    """
    y_blue_flat, y_red_flat = flat.y_blue, flat.y_red
    splits_blue_flat, splits_red_flat = flat.splits_blue, flat.splits_red
    col, scol = flat.col, flat.scol
    k = y_red_flat.shape[2] - 1
    child_concat = flat.child_concat
    child_offset = flat.child_offset
    stage_offset = flat.stage_offset
    avail = flat.avail
    load = flat.load.astype(np.float64)
    # |Λ ∩ T_v| caps every convolution's split range (see _batched_combine).
    subtree_avail = subtree_available_counts(flat, avail)

    # ---- dirty internal nodes, level-batched from the deepest level up ----
    # Per-node inputs of every dirty internal node are gathered once; each
    # level then reads a contiguous run of them (the positions are in flat
    # order, so equal depths are adjacent, deepest first).  A level's
    # tables are built with the node axis last, (rows, k + 1, B), and
    # written back into the nodes' blocks once the level is done.
    internal = dirty[~flat.leaf[dirty]]
    upward_all = flat.path_rho[:, internal]
    red_seed_all = upward_all * load[internal]
    fan_out_all = flat.num_children[internal]
    first_child_all = child_concat[child_offset[internal]]
    can_blue_all = avail[internal] & (k >= 1)
    for level, run in dirty_level_runs(flat.depth, internal):
        group = internal[run]
        rows = level + 1
        fan_out = fan_out_all[run]
        upward = upward_all[:rows, run]
        can_blue = can_blue_all[run]

        # stage m = 1.  Children live one level deeper and were finalized
        # before this level (dirty or clean alike), so their x rows are the
        # minimum of the y tensors as they stand now (a leaf's closed form).
        child_x = _child_x_rows(flat, load, first_child_all[run], rows)
        y_red = child_x + red_seed_all[:rows, None, run]
        y_blue = np.full_like(y_red, np.inf)
        sel = np.flatnonzero(can_blue)  # can_blue already folds in k >= 1
        if sel.size:
            # child_x[0] first: a scalar index combined with the node fancy
            # index would move the broadcast axes to the front.
            y_blue[:, 1:, sel] = (
                child_x[0][:k, sel][None, :, :] + upward[:, sel][:, None, :]
            )

        # stages m = 2 .. C(v)
        for stage in range(2, int(fan_out.max(initial=1)) + 1):
            active = np.flatnonzero(fan_out >= stage)
            nodes = group[active]
            child = child_concat[child_offset[nodes] + (stage - 1)]
            slots = scol[stage_offset[nodes] + (stage - 2)]
            j_cap = int(subtree_avail[child].max())

            child_x = _child_x_rows(flat, load, child, rows)
            merged_red, split_red = _batched_combine(
                y_red[:, :, active], child_x, k, blue=False, j_max=j_cap
            )
            y_red[:, :, active] = merged_red
            splits_red_flat[slots, :rows] = split_red.transpose(2, 0, 1)

            # A node that cannot be blue still gets defined (zero) blue
            # breadcrumbs: its slot blocks are fresh and uninitialized.
            splits_blue_flat[slots, :rows] = 0
            blue_active = np.flatnonzero(can_blue[active])
            if blue_active.size:
                merged_blue, split_blue = _batched_combine(
                    y_blue[:, :, active[blue_active]],
                    child_x[:1, :, blue_active],
                    k,
                    blue=True,
                    j_max=j_cap,
                )
                y_blue[:, :, active[blue_active]] = merged_blue
                splits_blue_flat[slots[blue_active], :rows] = split_blue.transpose(2, 0, 1)

        y_red_flat[col[group], :rows] = y_red.transpose(2, 0, 1)
        y_blue_flat[col[group], :rows] = y_blue.transpose(2, 0, 1)


#: The pure-numpy kernels.
NUMPY_BACKEND = Backend(
    name="numpy",
    repair_chain=_repair_chain_numpy,
    trace=numpy_blue_masks,
    costs=utilization_costs_flat,
)

#: The C kernels of :mod:`repro.core.engine_compiled`; ``None`` when they
#: did not build.
COMPILED_BACKEND: Backend | None = (
    Backend(
        name="compiled",
        repair_chain=engine_compiled.repair_chain,
        trace=compiled_blue_masks,
        costs=utilization_costs_compiled,
    )
    if engine_compiled.HAVE_COMPILED
    else None
)

#: Every backend this process can run, numpy first.
BACKENDS: tuple[Backend, ...] = tuple(
    backend for backend in (NUMPY_BACKEND, COMPILED_BACKEND) if backend is not None
)
#: The backend callers get unless they pass one: compiled when it built.
DEFAULT_BACKEND: Backend = BACKENDS[-1]
#: :data:`DEFAULT_BACKEND`'s name (``perfbench/checks.py`` records it).
DEFAULT_ENGINE: str = DEFAULT_BACKEND.name


def gather(
    tree: TreeNetwork,
    budget: int,
    exact_k: bool = False,
    backend: Backend = DEFAULT_BACKEND,
) -> GatherResult:
    """Run SOAR-Gather on node-major ``(node, l, i)`` tensors with ``backend``.

    Same parameters and bit-identical :class:`~repro.core.gather.GatherResult`
    as :func:`repro.core.gather.soar_gather`.  A cold gather is a repair
    with every internal switch dirty: the tables are allocated over the
    tree's memoized layout (one uninitialized block per internal switch
    under the cold index; leaves own none) and ``backend.repair_chain``
    computes every column.  The result carries its :class:`FlatTables`
    and a :class:`LazyNodeTables` mapping over them, so no per-node
    :class:`~repro.core.gather.NodeTables` is built until a consumer
    looks one up.
    """
    k = normalize_budget(tree, budget)
    flat = allocate_tables(tree, k, exact_k)
    backend.repair_chain(flat, flat.internal)
    return GatherResult(
        tables=LazyNodeTables(flat),
        root=tree.root,
        budget=k,
        requested_budget=int(budget),
        exact_k=flat.exact_k,
        flat=flat,
    )


def repair(
    result: GatherResult,
    tree: TreeNetwork,
    backend: Backend = DEFAULT_BACKEND,
    delta: frozenset[NodeId] | None = None,
) -> GatherResult:
    """Delta-repair a flat gather result towards ``tree``'s availability.

    ``result`` was gathered for ``result.flat.tree`` (availability Λ₀);
    ``tree`` is the same structure and loads under a different Λ.  Only the
    switches of the symmetric difference Λ₀ ^ Λ and their ancestors have
    stale DP slabs — every other subtree sees an unchanged Λ ∩ T_v — so
    the repaired tables share every clean block with ``result``'s and own
    fresh blocks for the dirty internal columns and their breadcrumb
    slots alone (:func:`~repro.core.flat.derive_tables`; a flipped leaf
    owns no block, so only its ancestors claim one);
    ``backend.repair_chain`` fills those: O(depth · k² · |delta|) work
    instead of the cold gather's O(n · k²), and no tensor is copied.  ``result`` is left
    unchanged — its blocks are never written — so the cache may repair
    the same artifact towards several Λ's, concurrently too.

    Bit-identity with a cold gather is preserved end to end: a cold
    gather *is* ``repair_chain`` with every internal switch dirty, so the
    dirty columns are recomputed by the very kernel, in the same
    deepest-first order, from the same inputs — clean children's columns are exactly
    what a cold gather at the new Λ computes, because their subtrees see
    an unchanged ``Λ ∩ T_v``.  The layout (``path_rho`` included) is the
    structure's shared, read-only one, and the blue breadcrumbs of dirty
    nodes are zeroed before the blue convolution writes, matching a cold
    gather for nodes that can no longer be blue.

    Rows beyond a node's depth stay unspecified (never read) exactly as
    in a cold gather, and the repaired result carries
    :class:`LazyNodeTables` — the same artifact shape as a cold gather —
    so no per-node view materialization is paid up front.

    ``delta``, when the caller already holds it, must be the symmetric
    difference of the two Λ's (it is computed otherwise).

    The result is bit-identical (costs, tables, breadcrumbs, traced
    placements) to ``gather(tree, result.requested_budget,
    result.exact_k)``.  Raises :class:`~repro.exceptions.RepairError` when
    repair is unsound: no flat tensors (a reference result), different
    structure or loads, or a changed effective budget (the tensor width
    would differ); callers handle it by re-gathering.
    """
    old_flat = result.flat
    if not isinstance(old_flat, FlatTables):
        raise RepairError("gather result carries no flat tensors to repair")
    old_tree = old_flat.tree
    if old_tree.structure_fingerprint() != tree.structure_fingerprint():
        raise RepairError(
            "cannot repair a gather table across structure changes; "
            "the flat tensor layout is structure-specific"
        )
    if not old_tree.same_loads(tree):
        raise RepairError(
            "cannot repair a gather table across load changes; "
            "every column of the DP depends on its subtree loads"
        )
    k = normalize_budget(tree, result.requested_budget)
    if k != result.budget:
        raise RepairError(
            f"effective budget changed ({result.budget} -> {k}): the delta "
            "moved |Λ| across the requested budget, so the tensor width of "
            "the cached tables no longer matches"
        )

    index = old_flat.index
    if delta is None:
        delta = old_tree.available ^ tree.available
    dirty = dirty_ancestor_positions(tree, index, delta)

    avail = old_flat.avail.copy()
    for switch in delta:
        avail[index[switch]] = switch in tree.available

    with derive_tables(old_flat, tree, avail, dirty) as new_flat:
        backend.repair_chain(new_flat, dirty)

    old_model = old_flat.cost_model
    if old_model is not None:
        # Structure, rates, and loads are unchanged by construction, so the
        # repaired artifact inherits the cost model (rebased onto the new
        # tree and Λ) and its first placement skips the O(n) model build.
        new_flat.cost_model = replace(old_model, tree=tree, avail=avail)

    return GatherResult(
        tables=LazyNodeTables(new_flat),
        root=tree.root,
        budget=k,
        requested_budget=result.requested_budget,
        exact_k=new_flat.exact_k,
        flat=new_flat,
        cost_model=new_flat.cost_model,
    )
