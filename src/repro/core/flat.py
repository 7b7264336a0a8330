"""Flat tensor view of a gather result, shared by the backends' kernels.

The gather drivers of :mod:`repro.core.engine` compute the SOAR dynamic
program directly on contiguous ``(l, i, node)`` tensors; the backends'
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
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.gather import NodeTables
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
    """

    order: tuple[NodeId, ...]
    index: dict[NodeId, int]
    depth: np.ndarray
    leaf: np.ndarray
    num_children: np.ndarray
    parent: np.ndarray
    rho: np.ndarray
    child_concat: np.ndarray
    child_offset: np.ndarray
    stage_offset: np.ndarray
    num_stages: int
    level_slices: tuple[tuple[int, int], ...]
    path_rho: np.ndarray
    postorder: np.ndarray


@dataclass
class FlatTables(FlatLayout):
    """Flat ``(l, i, node)`` tensors over a :class:`FlatLayout`.

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
    y_blue, y_red:
        The final-stage colour-decision tables, shape
        ``(height + 1, k + 1, n)``.  Rows ``l > depth`` of a node are
        unspecified (never read: the traceback parameter satisfies
        ``l <= depth``).
    splits_blue, splits_red:
        Breadcrumb tensors of shape ``(height + 1, k + 1, num_stages)``.
    """

    tree: TreeNetwork
    load: np.ndarray
    avail: np.ndarray
    y_blue: np.ndarray
    y_red: np.ndarray
    splits_blue: np.ndarray
    splits_red: np.ndarray
    #: Lazily-derived :class:`FlatCostModel` sharing this layout (see
    #: :func:`cost_model_for`); never built by the gather drivers themselves.
    cost_model: "FlatCostModel | None" = field(default=None, repr=False, compare=False)

    def node_tables(self, position: int) -> NodeTables:
        """The per-node slab views of one flat position, as :class:`NodeTables`.

        ``y_blue`` / ``y_red`` and the breadcrumb slices are zero-copy views
        into the flat tensors; ``x`` and ``choice`` are derived per node
        (``x = min(y_red, y_blue)`` elementwise and the strict
        ``y_blue < y_red`` decision), exactly the ``x`` rows the
        ``repair_chain`` kernels read for a parent.  This is what lets cold gathers
        and delta repairs alike skip the O(n) view-materialization loop and
        hand out per-node tables on demand (:class:`LazyNodeTables`).
        """
        rows = int(self.depth[position]) + 1
        y_blue = self.y_blue[:rows, :, position]
        y_red = self.y_red[:rows, :, position]
        stages = max(int(self.num_children[position]) - 1, 0)
        base = int(self.stage_offset[position])
        return NodeTables(
            x=np.minimum(y_red, y_blue),
            y_blue=y_blue,
            y_red=y_red,
            choice=np.less(y_blue, y_red).view(np.uint8),
            splits_blue=[
                self.splits_blue[:rows, :, base + stage] for stage in range(stages)
            ],
            splits_red=[
                self.splits_red[:rows, :, base + stage] for stage in range(stages)
            ],
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
    load, avail = (
        (flat.load, flat.avail) if flat is not None else instance_vectors(tree, layout)
    )
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
    every same-structure gather shares them.
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
    )
    for value in vars(layout).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return layout


def instance_vectors(
    tree: TreeNetwork, layout: "FlatLayout | FlatCostModel"
) -> tuple[np.ndarray, np.ndarray]:
    """``tree``'s loads (int64) and Λ membership (bool) in ``layout``'s order."""
    n = len(layout.order)
    load = np.fromiter(map(tree.load, layout.order), dtype=np.int64, count=n)
    avail = np.fromiter(
        map(tree.available.__contains__, layout.order), dtype=bool, count=n
    )
    return load, avail


def traced_vectors(
    tree: TreeNetwork, owner: "FlatTables | FlatCostModel"
) -> tuple[np.ndarray, np.ndarray]:
    """The loads and Λ a trace or cost evaluation over ``owner`` reads.

    Both depend on the *caller's* loads and Λ, exactly as the reference
    walks consult ``tree`` rather than gather-time state.  On the hot path
    (service table hits, ``GatherTable.place``) the caller's tree IS the
    tree ``owner`` was built for and its cached arrays apply; a caller
    tracing against a modified same-structure network gets the arrays
    re-derived from its own tree.
    """
    if tree is owner.tree:
        return owner.load, owner.avail
    return instance_vectors(tree, owner)


def allocate_tables(tree: TreeNetwork, budget: int) -> FlatTables:
    """Unfilled :class:`FlatTables` for ``tree`` at effective budget ``budget``.

    The layout is the tree's memoized :class:`FlatLayout`, ``load`` and
    ``avail`` are the tree's own; the ``y`` tensors are uninitialized and
    the breadcrumb tensors zeroed, as a gather expects to find them.
    """
    layout = tree.flat_layout()
    load, avail = instance_vectors(tree, layout)
    shape = (tree.height + 1, budget + 1)
    y_blue = np.empty((*shape, tree.num_switches), dtype=np.float64)
    splits_blue = np.zeros((*shape, layout.num_stages), dtype=np.int32)
    return FlatTables(
        **vars(layout),
        tree=tree,
        load=load,
        avail=avail,
        y_blue=y_blue,
        y_red=np.empty_like(y_blue),
        splits_blue=splits_blue,
        splits_red=np.zeros_like(splits_blue),
    )


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
    re-walked.  Returns the positions sorted ascending (``np.int64``).

    Raises
    ------
    RepairError
        If a delta entry is not a switch of ``tree`` (repairing towards a
        different structure is unsound).
    """
    destination = tree.destination
    dirty: set[int] = set()
    for switch in delta:
        if switch not in index:
            raise RepairError(
                f"availability delta entry {switch!r} is not a switch of the network"
            )
        node = switch
        while True:
            position = index[node]
            if position in dirty:
                break
            dirty.add(position)
            node = tree.parent(node)
            if node == destination:
                break
    return np.array(sorted(dirty), dtype=np.int64)


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
