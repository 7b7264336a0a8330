"""SOAR-Color: tracing an optimal colouring out of the gather tables.

Algorithm 4 of the paper walks the tree from the destination downwards.
Every node receives, from its parent, the pair ``(i, l*)``: the number of
blue nodes to distribute inside its subtree and its distance to the closest
blue ancestor (or to the destination if no blue ancestor exists).  The node
then

1. decides its own colour by comparing the blue and red entries of its
   final-stage ``Y`` table at ``(l*, i)``,
2. splits the remaining budget among its children by re-deriving the argmin
   of the ``mCost`` convolution (we stored those argmins during gather, so
   the traceback is a pure table lookup), and
3. forwards ``(i_child, l_child)`` to each child, where ``l_child = 1`` when
   the node is blue and ``l* + 1`` otherwise.

The per-node :func:`soar_color` is the reference walk of the paper; the
two backends of :mod:`repro.core.engine` trace a whole sweep's budgets
at once over the flat ``(l, i, node)`` tensors of :mod:`repro.core.flat`,
returning one blue mask per budget:

:func:`soar_color` (the reference oracle)
    The per-node work-list traversal following the distributed description
    of the paper, where each switch acts on the message received from its
    parent.  Iterative, so arbitrarily deep trees do not hit the recursion
    limit.  Tests call it directly as ground truth.

:func:`numpy_blue_masks` (the ``numpy`` backend's ``trace``)
    One level-batched traversal per budget (:func:`soar_color_batched`):
    every level of the tree decides its colours in one vectorized
    comparison and scatters its children's budgets in a handful of
    fancy-indexed passes — the same batching the numpy gather applies
    bottom-up, applied top-down.

:func:`compiled_blue_masks` (the ``compiled`` backend's ``trace``)
    The same root-down walk as one C call for every budget
    (``repro_color`` of :mod:`repro.core.engine_compiled`), node by node
    instead of level by level.

All of them read the same breadcrumbs and compare the same floats with the
same strict inequality, so they produce **identical** placements — including
on exact ties, where the shared ``<`` keeps the node red and the stored
ascending-``j`` argmin picks the same split — and raise the same
:class:`~repro.exceptions.PlacementError` on inconsistent tables.  The
differential suites (``tests/test_api_equivalence.py``,
``tests/test_invariants.py``, ``tests/test_trace_kernels.py``) enforce this
on both backends' tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.engine_compiled import color_masks
from repro.core.flat import FlatTables, traced_vectors
from repro.core.gather import GatherResult
from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import PlacementError


@dataclass(frozen=True)
class ColoringAssignment:
    """The ``(i, l*)`` pair a node receives from its parent during traceback."""

    node: NodeId
    budget: int
    distance: int


def _validated_budget(
    tree: TreeNetwork,
    gathered: GatherResult,
    budget: int | None,
) -> int:
    """Shared argument validation of the colour kernels."""
    if gathered.root != tree.root:
        raise PlacementError("gather tables were computed for a different network")
    if budget is None:
        budget = gathered.budget
    if budget > gathered.budget:
        raise PlacementError(
            f"requested budget {budget} exceeds the gathered budget {gathered.budget}"
        )
    if budget < 0:
        raise PlacementError(f"budget must be non-negative, got {budget}")
    return int(budget)


def _leaf_is_blue(
    tree: TreeNetwork,
    node: NodeId,
    budget: int,
    exact_k: bool,
) -> bool:
    """Decide a leaf's colour (Algorithm 4 lines 4-5, adapted per semantics).

    The paper colours a leaf blue whenever it received a positive budget.
    Under at-most-k semantics we additionally require the blue colour to
    strictly reduce the cost (load greater than one); a leaf with load 0 or 1
    gains nothing from aggregating, so the budget is simply left unused.
    """
    if budget <= 0 or node not in tree.available:
        return False
    if exact_k:
        return True
    return tree.load(node) > 1


def soar_color(
    tree: TreeNetwork,
    gathered: GatherResult,
    budget: int | None = None,
) -> frozenset[NodeId]:
    """Trace back an optimal set of blue nodes from gather tables.

    Parameters
    ----------
    tree:
        The network the tables were computed for.
    gathered:
        Output of :func:`repro.core.gather.soar_gather`.
    budget:
        Budget to trace for.  Defaults to the budget the tables were built
        with; any smaller value is also valid because the tables carry every
        column, which lets a single gather answer a whole budget sweep.

    Returns
    -------
    frozenset
        The selected blue switches ``U`` with ``|U| <= budget``.

    Raises
    ------
    PlacementError
        If ``budget`` exceeds the budget the tables were built for, or the
        tables do not belong to this tree.
    """
    budget = _validated_budget(tree, gathered, budget)

    blue: set[NodeId] = set()
    # The destination sends (k, 1) to the root (Algorithm 4 line 2).
    pending: list[ColoringAssignment] = [
        ColoringAssignment(node=tree.root, budget=int(budget), distance=1)
    ]

    while pending:
        assignment = pending.pop()
        node = assignment.node
        i = assignment.budget
        distance = assignment.distance
        tables = gathered.tables[node]
        children = tree.children(node)

        if not children:
            if _leaf_is_blue(tree, node, i, gathered.exact_k):
                blue.add(node)
            continue

        node_is_blue = bool(tables.y_blue[distance, i] < tables.y_red[distance, i])
        if node_is_blue:
            blue.add(node)
            child_distance = 1
            splits = tables.splits_blue
        else:
            child_distance = distance + 1
            splits = tables.splits_red

        # Children c_C .. c_2 take the budgets recorded at gather time; the
        # first child receives whatever remains (minus one when the node
        # itself is blue and therefore consumed one unit).
        remaining = i
        child_budgets: dict[NodeId, int] = {}
        for index in range(len(children) - 1, 0, -1):
            split_table = splits[index - 1]
            share = int(split_table[distance, remaining])
            child_budgets[children[index]] = share
            remaining -= share
        child_budgets[children[0]] = remaining - 1 if node_is_blue else remaining

        for child, share in child_budgets.items():
            if share < 0:
                raise PlacementError(
                    f"traceback assigned a negative budget to {child!r}; "
                    "the gather tables are inconsistent"
                )
            pending.append(
                ColoringAssignment(node=child, budget=share, distance=child_distance)
            )

    if len(blue) > budget:
        raise PlacementError(
            f"traceback selected {len(blue)} blue nodes for budget {budget}; "
            "the gather tables are inconsistent"
        )
    return frozenset(blue)


def soar_color_batched(
    tree: TreeNetwork,
    gathered: GatherResult,
    budget: int | None = None,
) -> frozenset[NodeId]:
    """Level-batched colour trace over the flat ``(l, i, node)`` tensors.

    Same parameters, same result, and same raised errors as
    :func:`soar_color` for tables that carry flat tensors (every table a
    backend gathers); the traversal is batched per tree level instead of
    per node.  Every child of a depth-``d`` node sits at depth ``d + 1``,
    so processing the levels root-down visits parents strictly before their
    children; within a level, colour decisions are one fancy-indexed tensor
    comparison and the budget split walks the convolution stages exactly as
    the reference does — highest child first, running remainder — but
    vectorized across every node of the level that still has an ``m``-th
    child.
    """
    budget = _validated_budget(tree, gathered, budget)
    flat = _flat_tables(gathered)
    load, avail = traced_vectors(tree, flat)
    positions = _batched_blue_positions(flat, load, avail, budget, gathered.exact_k)
    return frozenset(flat.order[position] for position in positions.tolist())


def _batched_blue_positions(
    flat: FlatTables,
    load: np.ndarray,
    avail: np.ndarray,
    budget: int,
    exact_k: bool,
) -> np.ndarray:
    """Flat positions of the blue nodes :func:`soar_color_batched` traces."""
    n = len(flat.order)
    # (budget, distance) each node receives from its parent; the
    # destination sends (k, 1) to the root (Algorithm 4 line 2), the one
    # node of the shallowest level and so the last flat position.
    budget_vec = np.zeros(n, dtype=np.int64)
    dist_vec = np.ones(n, dtype=np.int64)
    budget_vec[n - 1] = budget
    k = flat.y_red.shape[1] - 1

    chosen: list[np.ndarray] = []
    for start, stop in flat.level_slices:
        # Every budget of the level was written by its parent.  Inconsistent
        # shares always leave a negative one among siblings (a share above
        # the remainder leaves it to the first child), caught here before
        # any budget of the level indexes a table.
        window = budget_vec[start:stop]
        if int(window.min()) < 0:
            offender = flat.order[start + int(np.argmin(window))]
            raise PlacementError(
                f"traceback assigned a negative budget to {offender!r}; "
                "the gather tables are inconsistent"
            )
        level = np.arange(start, stop)
        leaf_mask = flat.leaf[start:stop]

        leaves = level[leaf_mask]
        if leaves.size:
            # Algorithm 4 lines 4-5, adapted per semantics (_leaf_is_blue).
            blue_leaf = (budget_vec[leaves] > 0) & avail[leaves]
            if not exact_k:
                blue_leaf &= load[leaves] > 1
            chosen.append(leaves[blue_leaf])

        internal = level[~leaf_mask]
        if not internal.size:
            continue
        l_params = dist_vec[internal]
        budgets = budget_vec[internal]
        node_blue = np.less(
            flat.y_blue[l_params, budgets, internal],
            flat.y_red[l_params, budgets, internal],
        )
        chosen.append(internal[node_blue])
        child_distance = np.where(node_blue, 1, l_params + 1)

        # Children c_C .. c_2 take the breadcrumb budgets; the running
        # remainder mirrors the reference's descending-stage walk.
        remaining = budgets.copy()
        counts = flat.num_children[internal]
        top = int(counts.max())
        for stage in range(top, 1, -1):
            active = counts >= stage
            nodes = internal[active]
            slot = flat.stage_offset[nodes] + (stage - 2)
            l_sel = l_params[active]
            r_sel = remaining[active]
            if stage < top:
                # Only inconsistent shares drive a remainder out of 0..k,
                # and the next level's check reports them; clipping keeps
                # this read in bounds until then.
                r_sel = np.clip(r_sel, 0, k)
            share = np.where(
                node_blue[active],
                flat.splits_blue[l_sel, r_sel, slot],
                flat.splits_red[l_sel, r_sel, slot],
            ).astype(np.int64)
            child = flat.child_concat[flat.child_offset[nodes] + (stage - 1)]
            budget_vec[child] = share
            dist_vec[child] = child_distance[active]
            remaining[active] -= share

        first = flat.child_concat[flat.child_offset[internal]]
        budget_vec[first] = remaining - node_blue
        dist_vec[first] = child_distance

    blue = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
    if blue.size > budget:
        raise PlacementError(
            f"traceback selected {blue.size} blue nodes for budget {budget}; "
            "the gather tables are inconsistent"
        )
    return blue


def _flat_tables(gathered: GatherResult) -> FlatTables:
    """The flat tensors a backend trace reads; reference results carry none."""
    if gathered.flat is None:
        raise PlacementError(
            "gather result carries no flat tensors; trace reference tables "
            "with soar_color"
        )
    return gathered.flat


def numpy_blue_masks(
    tree: TreeNetwork,
    gathered: GatherResult,
    budgets: Sequence[int | None],
) -> tuple[FlatTables, np.ndarray]:
    """The ``numpy`` backend's trace: :func:`soar_color_batched` per budget.

    Returns the flat tables traced (their ``order`` names the columns) and
    a ``(len(budgets), n)`` uint8 blue mask per budget.  Every budget is
    validated before any is traced, as :func:`compiled_blue_masks` does.
    """
    wanted = [_validated_budget(tree, gathered, budget) for budget in budgets]
    flat = _flat_tables(gathered)
    load, avail = traced_vectors(tree, flat)
    masks = np.zeros((len(wanted), len(flat.order)), dtype=np.uint8)
    for row, budget in enumerate(wanted):
        blue = _batched_blue_positions(flat, load, avail, budget, gathered.exact_k)
        masks[row, blue] = 1
    return flat, masks


def compiled_blue_masks(
    tree: TreeNetwork,
    gathered: GatherResult,
    budgets: Sequence[int | None],
) -> tuple[FlatTables, np.ndarray]:
    """The ``compiled`` backend's trace: every budget in one C call.

    Returns the flat tables traced and a ``(len(budgets), n)`` uint8 blue
    mask per budget, row ``b`` equal to :func:`soar_color_batched` at
    ``budgets[b]``; the same validation and the same
    :class:`~repro.exceptions.PlacementError` on inconsistent tables.
    Requires the C backend (:data:`~repro.core.engine_compiled.HAVE_COMPILED`).
    """
    wanted = [_validated_budget(tree, gathered, budget) for budget in budgets]
    flat = _flat_tables(gathered)
    load, avail = traced_vectors(tree, flat)
    return flat, color_masks(flat, load, avail, wanted, gathered.exact_k)


def blue_set(order: Sequence[NodeId], mask: np.ndarray) -> frozenset[NodeId]:
    """The switches of a flat-order blue mask."""
    return frozenset(order[position] for position in np.flatnonzero(mask).tolist())

