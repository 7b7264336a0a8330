"""Flat tensor view of a gather result, shared by the backends' kernels.

The gather drivers of :mod:`repro.core.engine` compute the SOAR dynamic
program directly on node-major ``(node, l, i)`` tensors; the backends'
colour traces (:mod:`repro.core.color`) read placements out of the very
same layout.  :class:`FlatLayout` is the structure half of that layout
(node order, per-level slabs, ragged child lists, breadcrumb slots, the
``path_rho`` table), built once per weighted tree by
:func:`build_metadata` and memoized on the network
(:meth:`~repro.core.tree.TreeNetwork.flat_layout`);
:class:`FlatTables` adds one gather's tensors plus its loads and Λ.

Every result a backend gathers or repairs carries its :class:`FlatTables`
zero-copy (the per-node :class:`~repro.core.gather.NodeTables` are built
on demand from views into the same memory; see :class:`LazyNodeTables`).
Results of the per-node reference walk
(:func:`~repro.core.gather.soar_gather`) carry none; only the reference
colour walk reads them.

The cost phase shares the layout too: :class:`FlatCostModel` is the
structural slice of it (node order, parent pointers, per-link ``rho``,
level slabs, the post-order permutation) that the batched cost kernels
of :mod:`repro.core.cost` evaluate Eq. (1) over.  A model depends only on
the *topology and rates* — loads and Λ are call-time inputs — so one model
serves every same-structure workload network, and a
:class:`~repro.core.solver.GatherTable` derives its model from the layout
it already carries (:func:`cost_model_for`), which is why a warm table
hit never rebuilds the per-link message-count dicts.

Node order
----------
Nodes are laid out deepest level first (stable within a level): every
level is then one contiguous slab, recorded in ``level_slices``, so both
the bottom-up gather and the top-down colour trace touch contiguous runs.
The children of all nodes are concatenated into one ragged array
(``child_concat`` + ``child_offset``), keeping the per-stage scatter of
the colour traceback a single fancy-indexed gather even on trees with
wildly varying fan-out.

Table layout
------------
The tensors are node-major blocks: one internal switch's DP column (its
``Y`` table) and one breadcrumb slot are each a single C-contiguous
``(height + 1, k + 1)`` block.  SOAR-Gather reads a child's block and
writes its parent's as unit-stride runs, :meth:`FlatTables.node_tables`
hands out contiguous slices, and a block can be shared as a whole.

Leaves own no block.  A leaf's tables are a closed form of its load, its
``path_rho`` column and its Λ membership (Algorithm 3 lines 1-9,
:func:`~repro.core.gather.leaf_tables`), and SOAR-Color decides a leaf
from its load and Λ alone, so the kernels compute a leaf child's ``x``
rows where a stage reads them and :meth:`FlatTables.node_tables` builds a
leaf's tables on demand.

A table does not own its blocks by position.  ``y_blue`` / ``y_red``
are *stores* of shape ``(capacity, height + 1, k + 1)`` and the
breadcrumbs stores of ``(slot capacity, height + 1, k + 1)``; the
table's column index ``col`` (length ``n``, ``-1`` at every leaf) names
the store block of every internal flat position and ``scol`` (length
``num_stages``) that of every breadcrumb slot, so an internal position
``p``'s table is ``y_red[col[p]]`` and slot ``s`` is
``splits_red[scol[s]]``.  A cold gather allocates exactly one block per
internal switch and ``num_stages`` slots and uses the layout's frozen
cold index (``col[internal[r]] == r``, ``scol[s] == s``).  A delta repair
(:func:`derive_tables`) copies the source's two index arrays, points the
dirty internal positions and their slots at fresh blocks of the
lineage's :class:`ColumnStore` and leaves every clean entry pointing at
the source's block: it copies no tensor.  The numpy kernels gather a
level's blocks with ``y[col[nodes]]``; the C kernels address
``store + col[v] * block``.  No code path sends a leaf's ``-1`` into a
store, a reference count or a claim.

Rows ``l > depth`` of an internal node's ``y`` blocks and of its
breadcrumb slots are unspecified: no kernel writes or reads them.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core import engine_compiled
from repro.core.engine_compiled import KernelArgs
from repro.core.gather import NodeTables, leaf_tables
from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import RepairError


@dataclass
class FlatLayout:
    """The structure-only half of the flat layout, built once per structure.

    Everything here depends on the topology and rates alone — never on
    loads or Λ — so :func:`build_metadata` computes it once per structure
    and :meth:`TreeNetwork.flat_layout` memoizes it in a slot that
    :meth:`~TreeNetwork.with_loads` / :meth:`~TreeNetwork.with_available`
    copies share: every gather, repair and cost model of the same
    weighted tree reads the same (read-only) arrays.

    Attributes
    ----------
    order:
        Nodes in flat order (deepest level first, stable within a level);
        position ``p`` of every array refers to ``order[p]``.
    index:
        Inverse of ``order``: node id -> flat position.
    depth, leaf, num_children:
        Per-node scalars in flat order.
    parent:
        Flat position of every node's parent; ``-1`` for the root (whose
        parent is the destination).
    parent_of:
        ``parent`` as a tuple of ints, for Python-level walks
        (:func:`dirty_ancestor_positions`).
    rho:
        Per-link transmission time ``rho((v, p(v)))`` in flat order.
    child_concat, child_offset:
        Ragged child lists: the children of the node at position ``p`` are
        ``child_concat[child_offset[p] : child_offset[p] + num_children[p]]``
        (as flat positions), in the tree's child order.
    stage_offset, num_stages:
        Position ``p``'s first breadcrumb slot in the split tensors; a node
        with ``C`` children owns slots ``stage_offset[p] .. + C - 2`` of
        ``num_stages`` in all.
    level_slices:
        ``level_slices[d - 1]`` is the ``(start, stop)`` slab of the nodes
        at depth ``d`` (1-based; the root's level is first).
    path_rho:
        ``path_rho[l, p] = rho(v, A^l_v)`` for the node ``v`` at position
        ``p``, shape ``(height + 1, n)``; rows ``l > depth`` are 0.0.
    postorder:
        Permutation mapping post-order rank to flat position
        (``order[postorder[i]]`` is ``tree.switches[i]``).
    internal:
        The flat positions of the internal switches, ascending: the only
        positions that own a column block (see "Table layout").
    cold_col, cold_scol:
        Every cold gather's column index (``-1`` at leaves, ``r`` at
        ``internal[r]``) and slot index (``arange(num_stages)``).
    switch_position:
        Flat position of every switch in the order of the network's load
        function (its switch mapping), so a load vector is one scatter
        (:meth:`TreeNetwork.flat_vectors`).
    canonical:
        The flat positions sorted by ``repr(node)``, the key
        :meth:`TreeNetwork.structure_fingerprint` sorts by.  It does not
        depend on the order the switches were given in, so
        :meth:`~repro.core.tree.Loads.digest` hashes a load vector taken
        through it.
    layout_args:
        The structure arrays bound for the C kernels
        (:func:`~repro.core.engine_compiled.bind_layout`), once per layout
        by :func:`build_metadata`; ``None`` without the C backend.
    """

    order: tuple[NodeId, ...]
    index: dict[NodeId, int]
    depth: np.ndarray
    leaf: np.ndarray
    num_children: np.ndarray
    parent: np.ndarray
    parent_of: tuple[int, ...]
    rho: np.ndarray
    child_concat: np.ndarray
    child_offset: np.ndarray
    stage_offset: np.ndarray
    num_stages: int
    level_slices: tuple[tuple[int, int], ...]
    path_rho: np.ndarray
    postorder: np.ndarray
    internal: np.ndarray
    cold_col: np.ndarray
    cold_scol: np.ndarray
    switch_position: np.ndarray
    canonical: np.ndarray
    layout_args: KernelArgs | None = field(
        default=None, kw_only=True, repr=False, compare=False
    )


@dataclass
class FlatTables(FlatLayout):
    """Node-major ``(node, l, i)`` tensors over a :class:`FlatLayout`.

    The layout fields are the structure's shared, read-only arrays (see
    :class:`FlatLayout`); the rest belong to one gather.

    Attributes
    ----------
    tree:
        The instance the tables were gathered for — the network whose
        loads and Λ the cached ``load`` / ``avail`` arrays reflect.
        Consumers tracing for a *different* (same-structure) network must
        re-derive those two arrays from their own tree (the backends'
        traces and costs do; see :func:`traced_vectors`).
    load, avail:
        The tree's loads (int64) and Λ membership (bool) in flat order.
    exact_k:
        The budget semantics the tables encode; a leaf's closed form
        depends on it.
    y_blue, y_red:
        Stores of the internal switches' final-stage colour-decision
        tables, shape ``(capacity, height + 1, k + 1)``: ``y_red[col[p]]``
        is the contiguous table of the internal node at position ``p``.
        Rows ``l > depth`` are unspecified (never read: the traceback
        parameter satisfies ``l <= depth``).  Leaves own no block: their
        columns are a closed form (:func:`~repro.core.gather.leaf_tables`).
    splits_blue, splits_red:
        Breadcrumb stores of shape ``(slot capacity, height + 1, k + 1)``;
        slot ``s`` is the block ``splits_red[scol[s]]``.
    col, scol:
        The column index (length ``n``, ``-1`` at leaves) and slot index
        (length ``num_stages``) into the stores; frozen.
    store:
        The lineage's :class:`ColumnStore` once a repair has derived a
        table from this one, else ``None``.
    table_args:
        The table's arrays bound for the C kernels
        (:func:`~repro.core.engine_compiled.bind_tables`; ``None`` without
        the C backend).  Bound when the tables are built, from a binding
        passed in here when there is one (its unchanged arrays keep their
        checked addresses, and its float64 loads are reused while the load
        array is the same, so a lineage converts its loads once), and bound
        anew whenever :meth:`ColumnStore.pin` replaces the stores.  The
        binding holds every array it points into, so a kernel call that
        read it keeps those arrays alive until it returns, even when a
        re-pin has replaced them meanwhile.
    """

    tree: TreeNetwork
    load: np.ndarray
    avail: np.ndarray
    exact_k: bool
    y_blue: np.ndarray
    y_red: np.ndarray
    splits_blue: np.ndarray
    splits_red: np.ndarray
    col: np.ndarray
    scol: np.ndarray
    #: Lazily-derived :class:`FlatCostModel` sharing this layout (see
    #: :func:`cost_model_for`); never built by the gather drivers themselves.
    cost_model: "FlatCostModel | None" = field(default=None, repr=False, compare=False)
    store: "ColumnStore | None" = field(default=None, repr=False, compare=False)
    table_args: KernelArgs | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.table_args = engine_compiled.bind_tables(self, like=self.table_args)

    def node_tables(self, position: int) -> NodeTables:
        """The per-node tables of one flat position, as :class:`NodeTables`.

        For an internal position, ``y_blue`` / ``y_red`` and the
        breadcrumb slices are zero-copy, contiguous views of the
        position's blocks in the stores (``y_red[col[position]]`` and
        ``splits_red[scol[slot]]``, rows ``0 .. depth``).  A leaf owns no
        block: its tables are built from the closed form
        (:func:`~repro.core.gather.leaf_tables` over :attr:`tree`), the
        very values a parent's stage reads, with no breadcrumbs.  For an
        internal node ``x`` and ``choice`` are derived per node (``x = min(y_red, y_blue)`` elementwise and the
        strict ``y_blue < y_red`` decision), exactly the ``x`` rows the
        ``repair_chain`` kernels read for a parent.  This is what lets cold gathers
        and delta repairs alike skip the O(n) view-materialization loop and
        hand out per-node tables on demand (:class:`LazyNodeTables`).
        """
        if self.leaf[position]:
            return leaf_tables(
                self.tree, self.order[position], self.y_red.shape[2] - 1, self.exact_k
            )
        rows = int(self.depth[position]) + 1
        block = int(self.col[position])
        y_blue = self.y_blue[block, :rows]
        y_red = self.y_red[block, :rows]
        base = int(self.stage_offset[position])
        slots = self.scol[base : base + int(self.num_children[position]) - 1]
        return NodeTables(
            x=np.minimum(y_red, y_blue),
            y_blue=y_blue,
            y_red=y_red,
            choice=np.less(y_blue, y_red).view(np.uint8),
            splits_blue=[self.splits_blue[slot, :rows] for slot in slots.tolist()],
            splits_red=[self.splits_red[slot, :rows] for slot in slots.tolist()],
        )


@dataclass
class FlatCostModel:
    """Structural metadata the level-batched cost kernel traverses.

    The model captures only what Eq. (1) needs about the *topology and
    rates*: loads and the blue set are inputs of every evaluation.  One
    model therefore serves every workload network sharing the structure —
    the online scheduler builds one per shared fleet network and feeds
    per-arrival load mappings through it.

    Attributes
    ----------
    tree:
        The network the model was built from.  When an evaluation passes a
        *different* (same-structure, same-rates) tree, its loads are
        re-derived instead of trusting the cached ``load`` array — the
        same foreign-tree contract the batched colour kernel follows.
    order, index, level_slices:
        The canonical flat layout (see :class:`FlatTables`).
    parent:
        Flat position of every node's parent; ``-1`` for the root (whose
        parent is the destination).
    rho:
        Per-link transmission time ``rho((v, p(v)))`` in flat order.
    load, avail:
        The model tree's own loads and Λ membership in flat order (used
        only when the evaluation passes neither ``loads`` nor a foreign
        tree).
    postorder:
        Permutation mapping post-order rank to flat position: iterating
        ``order[postorder[i]]`` visits the switches exactly as
        ``tree.switches`` does, which is what lets the kernel reproduce
        the reference summation order bit for bit.
    postorder_nodes:
        The switches in post-order (``tree.switches``), kept so per-link
        dictionaries can be zipped without per-node lookups.
    cost_args:
        The arrays the C cost kernel reads, bound when the model is built
        (:func:`~repro.core.engine_compiled.bind_cost_model`; ``None``
        without the C backend).  A model made by
        :func:`dataclasses.replace` binds anew from the old binding,
        keeping the addresses of the arrays it did not replace.
    """

    tree: TreeNetwork
    order: tuple[NodeId, ...]
    index: dict[NodeId, int]
    parent: np.ndarray
    rho: np.ndarray
    load: np.ndarray
    avail: np.ndarray
    level_slices: tuple[tuple[int, int], ...]
    postorder: np.ndarray
    postorder_nodes: tuple[NodeId, ...]
    cost_args: KernelArgs | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cost_args = engine_compiled.bind_cost_model(self, like=self.cost_args)

    def load_vector(self, loads: Mapping[NodeId, int]) -> np.ndarray:
        """A flat-order load array for an explicit load mapping.

        Mirrors the reference kernels' ``loads.get(switch, 0)`` contract:
        switches absent from the mapping carry load 0 and keys that are
        not switches of the network are ignored.
        """
        vector = np.zeros(len(self.order), dtype=np.int64)
        index = self.index
        for node, value in loads.items():
            position = index.get(node)
            if position is not None:
                vector[position] = int(value)
        return vector

    def loads_for(self, tree: TreeNetwork, loads: Mapping[NodeId, int] | None) -> np.ndarray:
        """Resolve the effective flat-order load array of one evaluation."""
        if loads is not None:
            return self.load_vector(loads)
        if tree is self.tree:
            return self.load
        return np.fromiter(
            (tree.load(node) for node in self.order),
            dtype=np.int64,
            count=len(self.order),
        )


def cost_model_for(tree: TreeNetwork, flat: FlatTables | None = None) -> FlatCostModel:
    """Build (or fetch) the :class:`FlatCostModel` of a network.

    The structural fields come from the tree's memoized
    :class:`FlatLayout`.  When ``flat`` tables gathered for the *same*
    tree are given, the model also reuses their load array and is cached
    on them, so a gather artifact pays the construction once across every
    placement it traces; bare trees get a fresh model (callers evaluating
    many placements over one network should hold on to it).
    """
    if flat is not None and flat.tree is not tree:
        flat = None
    if flat is not None and flat.cost_model is not None:
        return flat.cost_model
    layout = tree.flat_layout()
    load, avail = (flat.load, flat.avail) if flat is not None else tree.flat_vectors()
    model = FlatCostModel(
        tree=tree,
        order=layout.order,
        index=layout.index,
        parent=layout.parent,
        rho=layout.rho,
        load=load,
        avail=avail,
        level_slices=layout.level_slices,
        postorder=layout.postorder,
        postorder_nodes=tree.switches,
    )
    if flat is not None:
        flat.cost_model = model
    return model


def flat_order(tree: TreeNetwork) -> list[NodeId]:
    """The canonical flat node order: deepest level first, stable within."""
    return sorted(tree.switches, key=tree.depth, reverse=True)


def level_slices_for(depth: np.ndarray, height: int) -> tuple[tuple[int, int], ...]:
    """Per-level ``(start, stop)`` slabs of a descending-sorted depth array."""
    negated = -depth
    slices = []
    for level in range(1, height + 1):
        start = int(np.searchsorted(negated, -level, side="left"))
        stop = int(np.searchsorted(negated, -level, side="right"))
        slices.append((start, stop))
    return tuple(slices)


def build_metadata(tree: TreeNetwork) -> FlatLayout:
    """Build the :class:`FlatLayout` of ``tree``'s structure.

    The only builder of the layout.  Callers go through
    :meth:`TreeNetwork.flat_layout`, which memoizes the result per
    structure; the arrays are frozen (``setflags(write=False)``) because
    every same-structure gather shares them, and bound for the C kernels
    once, here (``layout_args``).
    """
    order = flat_order(tree)
    index = {node: position for position, node in enumerate(order)}
    n = len(order)
    height = tree.height
    depth = np.fromiter(map(tree.depth, order), dtype=np.int64, count=n)
    rho = np.fromiter(map(tree.rho, order), dtype=np.float64, count=n)
    parent = np.fromiter(
        (index.get(tree.parent(v), -1) for v in order), dtype=np.int64, count=n
    )
    num_children = np.fromiter(map(tree.num_children, order), dtype=np.int64, count=n)
    child_concat = np.fromiter(
        (index[c] for v in order for c in tree.children(v)),
        dtype=np.int64,
        count=int(num_children.sum()),
    )
    stage_counts = np.maximum(num_children - 1, 0)
    internal = np.flatnonzero(num_children > 0)
    cold_col = np.full(n, -1, dtype=np.int64)
    cold_col[internal] = np.arange(internal.size)

    # P[l, v] = rho(v, A^l_v), accumulated bottom-up exactly like
    # TreeNetwork.path_rho_prefix (same summation order, hence the same
    # floating-point values).  Rows l > D(v) stay 0.0.
    path_rho = np.zeros((height + 1, n), dtype=np.float64)
    ancestor = np.arange(n)
    for level in range(1, height + 1):
        live = depth >= level
        path_rho[level, live] = path_rho[level - 1, live] + rho[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]

    layout = FlatLayout(
        order=tuple(order),
        index=index,
        depth=depth,
        leaf=num_children == 0,
        num_children=num_children,
        parent=parent,
        parent_of=tuple(parent.tolist()),
        rho=rho,
        child_concat=child_concat,
        child_offset=np.concatenate(([0], np.cumsum(num_children)[:-1])),
        stage_offset=np.concatenate(([0], np.cumsum(stage_counts)[:-1])),
        num_stages=int(stage_counts.sum()),
        level_slices=level_slices_for(depth, height),
        path_rho=path_rho,
        postorder=np.fromiter(
            (index[v] for v in tree.switches), dtype=np.int64, count=n
        ),
        internal=internal,
        cold_col=cold_col,
        cold_scol=np.arange(int(stage_counts.sum()), dtype=np.int64),
        switch_position=np.fromiter(
            map(index.__getitem__, tree.loads), dtype=np.int64, count=n
        ),
        canonical=np.fromiter(
            sorted(range(n), key=lambda position: repr(order[position])),
            dtype=np.int64,
            count=n,
        ),
    )
    for value in vars(layout).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    layout.layout_args = engine_compiled.bind_layout(layout)
    return layout


def traced_vectors(
    tree: TreeNetwork, owner: "FlatTables | FlatCostModel"
) -> tuple[np.ndarray, np.ndarray]:
    """The loads and Λ a trace or cost evaluation over ``owner`` reads.

    Both depend on the *caller's* loads and Λ, exactly as the reference
    walks consult ``tree`` rather than gather-time state.  On the hot path
    (service table hits, ``GatherTable.place``) the caller's tree IS the
    tree ``owner`` was built for and its cached arrays apply; a caller
    tracing against a modified same-structure network gets the arrays
    re-derived from its own tree, node by node in ``owner``'s order.
    """
    if tree is owner.tree:
        return owner.load, owner.avail
    n = len(owner.order)
    load = np.fromiter(map(tree.load, owner.order), dtype=np.int64, count=n)
    avail = np.fromiter(map(tree.available.__contains__, owner.order), dtype=bool, count=n)
    return load, avail


def allocate_tables(tree: TreeNetwork, budget: int, exact_k: bool) -> FlatTables:
    """Unfilled :class:`FlatTables` for ``tree`` at effective budget ``budget``.

    The layout is the tree's memoized :class:`FlatLayout`, ``load`` and
    ``avail`` are the tree's own; the stores hold exactly one block per
    internal switch and ``num_stages`` slots, all uninitialized, under
    the cold index.  Leaves own no block: their columns are a closed form
    (:func:`~repro.core.gather.leaf_tables`).
    """
    layout = tree.flat_layout()
    load, avail = tree.flat_vectors()
    block = (tree.height + 1, budget + 1)
    y_blue = np.empty((layout.internal.size, *block), dtype=np.float64)
    splits_blue = np.empty((layout.num_stages, *block), dtype=np.int32)
    return FlatTables(
        **{name: getattr(layout, name) for name in _LAYOUT_FIELDS},
        tree=tree,
        load=load,
        avail=avail,
        exact_k=exact_k,
        y_blue=y_blue,
        y_red=np.empty_like(y_blue),
        splits_blue=splits_blue,
        splits_red=np.empty_like(splits_blue),
        col=layout.cold_col,
        scol=layout.cold_scol,
    )


class _BlockPool:
    """One pair of blue/red stores and a reference count per block."""

    def __init__(self, blue: np.ndarray, red: np.ndarray) -> None:
        self.blue, self.red = blue, red
        # The adopted cold tensors are held by every block and never
        # written again, so the first claim always grows (see ColumnStore).
        self.refs = np.ones(len(blue), dtype=np.int64)
        self.adopted = True

    def claim(self, count: int) -> np.ndarray:
        """``count`` unreferenced block indices, growing the stores if needed."""
        if count == 0:
            return self.refs[:0]
        free = np.flatnonzero(self.refs == 0)
        if self.adopted or free.size < count:
            capacity = len(self.refs)
            grown = max(2 * capacity, capacity + count)
            self.blue = _grown(self.blue, grown)
            self.red = _grown(self.red, grown)
            self.refs = np.concatenate((self.refs, np.zeros(grown - capacity, np.int64)))
            self.adopted = False
            free = np.flatnonzero(self.refs == 0)
        return free[:count]


def _grown(store: np.ndarray, capacity: int) -> np.ndarray:
    """A copy of ``store`` with room for ``capacity`` blocks, same indices."""
    grown = np.empty((capacity, *store.shape[1:]), dtype=store.dtype)
    grown[: len(store)] = store
    return grown


class _Pinned:
    """A store's memory, exposed with a strong reference to a table's lease.

    Every array derived from a lineage table's stores (its
    :meth:`FlatTables.node_tables` views included) keeps the lease alive,
    so the table's blocks cannot be reclaimed and rewritten while anything
    can still read them.
    """

    __slots__ = ("__array_interface__", "array", "lease")

    def __init__(self, array: np.ndarray, lease: "_Lease") -> None:
        self.__array_interface__ = array.__array_interface__
        self.array = array
        self.lease = lease


class _Lease:
    """The object whose death returns a table's blocks to its store."""

    __slots__ = ("__weakref__",)


class ColumnStore:
    """The column and slot blocks of one lineage of tables, reference counted.

    A lineage is a cold gather and every table repaired from it, directly
    or through other repairs.  The first repair adopts the cold table's
    tensors as the store's first blocks; each repair then claims fresh
    blocks for its dirty internal columns and slots only and references
    the rest from its source (:func:`derive_tables`).  Leaf columns are a
    closed form and own no block, so a flipped leaf claims nothing and
    only its ancestors do; a table holds exactly its internal positions'
    blocks (``col[internal]``).  Each block counts the live
    tables that reference it.  A table's stores are pinned to a lease
    (:class:`_Pinned`) whose death — the table's and every view's — queues
    the table's blocks for release; the next claim collects them.  A block
    is claimed again only at count zero, so no block a live table or view
    can read is ever overwritten.

    The stores grow geometrically (doubling, or by the claim when larger)
    and are never compacted.  Growth copies the current stores into larger
    ones under the same indices, and the repair's source is re-pinned to
    them, so a repaired table always shares its clean blocks with its
    source.  Stores a growth replaced are never written again; they live
    while a table or view pinned to them does.  The adopted cold tensors
    hold all of their blocks, so a lineage grows at its first repair, and
    afterwards only when its live blocks outgrow the store.  A repair
    holds :attr:`lock` from its claim until its kernel has filled the
    fresh blocks, so growth never copies a half-written block.  The store
    lives as long as one of its tables does.
    """

    def __init__(self, source: FlatTables) -> None:
        self.columns = _BlockPool(source.y_blue, source.y_red)
        self.slots = _BlockPool(source.splits_blue, source.splits_red)
        self.lock = threading.Lock()
        # Finalizers only append here (never lock): they can run inside a
        # locked section of the same thread when the collector fires.
        self._released: list[tuple[np.ndarray, np.ndarray]] = []

    def release(self, col: np.ndarray, scol: np.ndarray) -> None:
        """Queue a dead table's blocks for the next claim (finalizer)."""
        self._released.append((col, scol))

    def collect(self) -> None:
        """Apply queued releases; callers hold :attr:`lock`."""
        while self._released:
            col, scol = self._released.pop()
            self.columns.refs[col] -= 1
            self.slots.refs[scol] -= 1

    def live_blocks(self) -> tuple[int, int]:
        """The column and slot blocks some live table references."""
        with self.lock:
            self.collect()
            return (
                int(np.count_nonzero(self.columns.refs)),
                int(np.count_nonzero(self.slots.refs)),
            )

    def lease(self, col: np.ndarray, scol: np.ndarray) -> _Lease:
        """A lease releasing column blocks ``col`` and slots ``scol`` when it dies.

        ``col`` is a table's ``col[internal]``, never its full index: a
        leaf's ``-1`` must not reach a reference count.
        """
        lease = _Lease()
        weakref.finalize(lease, self.release, col, scol).atexit = False
        return lease

    def pinned(self, lease: _Lease) -> dict[str, np.ndarray]:
        """The current stores pinned to ``lease``, by :class:`FlatTables` field."""
        return {
            "y_blue": np.asarray(_Pinned(self.columns.blue, lease)),
            "y_red": np.asarray(_Pinned(self.columns.red, lease)),
            "splits_blue": np.asarray(_Pinned(self.slots.blue, lease)),
            "splits_red": np.asarray(_Pinned(self.slots.red, lease)),
        }

    def pin(self, flat: FlatTables, lease: _Lease) -> None:
        """Point ``flat``'s stores at the current ones, pinned to ``lease``.

        Callers hold :attr:`lock` (or own ``flat`` exclusively).  Re-pinning
        a live table changes which arrays it reads, never what it reads:
        its blocks hold the same bytes in every store that has them.  The
        table is bound anew for the C kernels (``table_args``) once its
        stores are replaced; the old binding is left as it was, because a
        reader on another thread may be passing it to a kernel right now,
        and it keeps the stores it points into alive until that reader
        drops it.
        """
        for name, array in self.pinned(lease).items():
            setattr(flat, name, array)
        flat.table_args = engine_compiled.bind_tables(flat, like=flat.table_args)


_ADOPT_LOCK = threading.Lock()


def _store_of(source: FlatTables) -> ColumnStore:
    """``source``'s lineage store, adopting a cold table's tensors first."""
    with _ADOPT_LOCK:
        if source.store is None:
            # Views handed out before adoption read the cold tensors
            # unpinned; no claim ever writes those (_BlockPool.adopted).
            store = ColumnStore(source)
            store.pin(source, store.lease(source.col[source.internal], source.scol))
            source.store = store
        return source.store


def dirty_slots(layout: FlatLayout, dirty: np.ndarray) -> np.ndarray:
    """The breadcrumb slots of the ``dirty`` positions, ascending."""
    counts = np.maximum(layout.num_children[dirty] - 1, 0)
    firsts = layout.stage_offset[dirty] - (np.cumsum(counts) - counts)
    return np.repeat(firsts, counts) + np.arange(int(counts.sum()))


@contextmanager
def derive_tables(
    source: FlatTables, tree: TreeNetwork, avail: np.ndarray, dirty: np.ndarray
) -> Iterator[FlatTables]:
    """Tables for ``tree`` sharing ``source``'s clean blocks, dirty ones fresh.

    The new column and slot indices are copies of ``source``'s with the
    internal ``dirty`` positions (ascending, closed under ancestors) and
    their breadcrumb slots pointed at fresh blocks of the lineage's
    :class:`ColumnStore`; dirty leaves own no block and claim none.  The
    fresh blocks are uninitialized: the caller fills them inside the
    ``with`` block (``backend.repair_chain``), which holds the store's
    lock.  The tables' blocks return to the store when the tables and
    every view of them are gone.
    """
    store = _store_of(source)
    dirty = dirty[~source.leaf[dirty]]
    slots = dirty_slots(source, dirty)
    with store.lock:
        store.collect()
        col = source.col.copy()
        scol = source.scol.copy()
        col[dirty] = store.columns.claim(dirty.size)
        scol[slots] = store.slots.claim(slots.size)
        blocks = col[source.internal]
        store.columns.refs[blocks] += 1
        store.slots.refs[scol] += 1
        col.setflags(write=False)
        scol.setflags(write=False)
        pinned = source.y_blue.base
        if pinned.array is not store.columns.blue or (
            source.splits_blue.base.array is not store.slots.blue
        ):
            store.pin(source, pinned.lease)
        flat = FlatTables(
            **{name: getattr(source, name) for name in _LAYOUT_FIELDS},
            tree=tree,
            load=source.load,
            avail=avail,
            exact_k=source.exact_k,
            **store.pinned(store.lease(blocks, scol)),
            col=col,
            scol=scol,
            store=store,
            table_args=source.table_args,
        )
        yield flat


_LAYOUT_FIELDS: tuple[str, ...] = tuple(FlatLayout.__dataclass_fields__)


class LazyNodeTables(dict):
    """``node -> NodeTables`` mapping materialized on demand from flat tensors.

    Eagerly building all ``n`` per-node views costs about a fifth of a cold
    gather on BT(1024) — and most of a delta repair, which recomputes only
    the dirtied DP slabs.  Both driver paths (cold gathers and
    repairs) therefore carry this mapping instead: a real ``dict`` (so
    every consumer treating ``tables`` as a mapping keeps working) whose
    entries are built from :meth:`FlatTables.node_tables` the first time a
    node is looked up.  The batched colour kernel never reads ``tables`` at
    all, and ``cost_for_budget`` touches only the root, so the common path
    materializes a single node.

    Bulk protocols (iteration, ``len``, ``keys``/``values``/``items``,
    containment, equality) reflect the *full* node set: they materialize
    every node in canonical flat order first, making the mapping
    indistinguishable from an eager per-node dict such as the reference
    walk builds.
    """

    def __init__(self, flat: FlatTables) -> None:
        super().__init__()
        self._flat = flat

    def __missing__(self, node: NodeId) -> NodeTables:
        tables = self._flat.node_tables(self._flat.index[node])
        dict.__setitem__(self, node, tables)
        return tables

    # ``dict.get`` does not consult ``__missing__``; route it through
    # ``__getitem__`` so lazily-absent nodes still resolve.
    def get(self, node, default=None):
        if node not in self._flat.index:
            return default
        return self[node]

    def _materialize_all(self) -> None:
        for node in self._flat.order:
            if not dict.__contains__(self, node):
                self[node]

    def __contains__(self, node: object) -> bool:
        return node in self._flat.index

    def __len__(self) -> int:
        return len(self._flat.order)

    def __iter__(self):
        self._materialize_all()
        return dict.__iter__(self)

    def keys(self):
        self._materialize_all()
        return dict.keys(self)

    def values(self):
        self._materialize_all()
        return dict.values(self)

    def items(self):
        self._materialize_all()
        return dict.items(self)

    def __eq__(self, other: object) -> bool:
        self._materialize_all()
        return dict.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result


def dirty_ancestor_positions(
    tree: TreeNetwork,
    index: dict[NodeId, int],
    delta: frozenset[NodeId] | set[NodeId],
) -> np.ndarray:
    """Flat positions whose DP slabs an availability delta invalidates.

    A switch's ``X`` table depends on the availability of every switch in
    its subtree, so flipping Λ membership of the delta switches dirties
    exactly those switches plus all their ancestors up to the root — the
    union of the delta's root paths.  Ancestor walks stop early when they
    hit a position already collected, so overlapping paths are not
    re-walked.  ``index`` is the flat index of ``tree``'s structure.
    Returns the positions sorted ascending (``np.int64``, read-only).

    The last walk of a ``frozenset`` delta is remembered: the service's
    repair guard (:mod:`repro.service.cache`) walks the very delta object
    the repair it approves then walks, so the repair reuses the guard's
    positions instead of walking again.

    Raises
    ------
    RepairError
        If a delta entry is not a switch of ``tree`` (repairing towards a
        different structure is unsound).
    """
    global _last_walk
    layout = tree.flat_layout()
    last = _last_walk
    if last is not None and last[0] is layout and last[1] is delta:
        return last[2]
    parent_of = layout.parent_of
    dirty: set[int] = set()
    for switch in delta:
        position = index.get(switch)
        if position is None:
            raise RepairError(
                f"availability delta entry {switch!r} is not a switch of the network"
            )
        while position >= 0 and position not in dirty:
            dirty.add(position)
            position = parent_of[position]
    positions = np.array(sorted(dirty), dtype=np.int64)
    positions.setflags(write=False)
    if isinstance(delta, frozenset):
        _last_walk = (layout, delta, positions)
    return positions


#: ``(layout, delta, positions)`` of the last frozenset walk (see
#: :func:`dirty_ancestor_positions`); replaced whole, so threads only ever
#: see a consistent triple, and an identity match on an immutable delta
#: cannot go stale.
_last_walk: tuple[FlatLayout, frozenset, np.ndarray] | None = None


def dirty_level_runs(
    depth: np.ndarray, positions: np.ndarray
) -> list[tuple[int, slice]]:
    """Split ascending flat positions into per-level runs, deepest level first.

    The flat order lists nodes deepest level first, so ascending positions
    have non-increasing depths and each level's positions form one
    contiguous run.  Returns ``(level, run)`` pairs where
    ``positions[run]`` are that level's positions, still ascending — the
    cold gather's traversal order (children are final before any parent is
    touched).
    """
    levels = depth[positions]
    cuts = [0, *(np.flatnonzero(levels[1:] != levels[:-1]) + 1).tolist(), len(levels)]
    return [
        (int(levels[start]), slice(start, stop))
        for start, stop in zip(cuts[:-1], cuts[1:])
        if stop > start
    ]
