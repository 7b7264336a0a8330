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

Two interchangeable kernels implement this trace:

:func:`soar_color` (``"reference"``)
    The per-node work-list traversal following the distributed description
    of the paper, where each switch acts on the message received from its
    parent.  Iterative, so arbitrarily deep trees do not hit the recursion
    limit.

:func:`soar_color_batched` (``"batched"``, the default)
    A level-batched traversal over the flat ``(l, i, node)`` tensors of
    :mod:`repro.core.flat`: every level of the tree decides its colours in
    one vectorized comparison and scatters its children's budgets in a
    handful of fancy-indexed passes — the same batching strategy the flat
    gather engine applies bottom-up, applied top-down.  The colour trace is
    the *entire* cost of a warm gather-table cache hit in
    :mod:`repro.service`, which is what makes this kernel worth having.

Both kernels read the same breadcrumbs and compare the same floats with the
same strict inequality, so they produce **identical** placements — including
on exact ties, where the shared ``<`` keeps the node red and the stored
ascending-``j`` argmin picks the same split.  The differential suites
(``tests/test_api_equivalence.py``, ``tests/test_invariants.py``) enforce
this on both engines' tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.engine_compiled import strict_less
from repro.core.flat import flat_tables_for, instance_vectors
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
    _decide: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> frozenset[NodeId]:
    """Level-batched colour trace over the flat ``(l, i, node)`` tensors.

    Same parameters, same result, and same raised errors as
    :func:`soar_color`; the traversal is batched per tree level instead of
    per node.  Every child of a depth-``d`` node sits at depth ``d + 1``,
    so processing the levels root-down visits parents strictly before their
    children; within a level, colour decisions are one fancy-indexed tensor
    comparison and the budget split walks the convolution stages exactly as
    the reference does — highest child first, running remainder — but
    vectorized across every node of the level that still has an ``m``-th
    child.

    ``_decide`` optionally replaces the elementwise strict-``<`` used for
    the per-level colour decisions (the compiled kernel routes it through
    the C comparison); any substitute must implement exactly
    :func:`np.less` over float64.
    """
    budget = _validated_budget(tree, gathered, budget)
    decide = np.less if _decide is None else _decide
    flat = flat_tables_for(tree, gathered)
    n = len(flat.order)

    # The leaf colour rule depends on the *caller's* loads and Λ, exactly
    # as the reference consults ``tree`` rather than gather-time state.
    # On the hot path (service table hits, GatherTable.place) the caller's
    # tree IS the gather-time tree and the cached arrays apply; a legacy
    # caller tracing the tables against a modified same-structure network
    # gets the arrays re-derived from its own tree.
    if tree is flat.tree:
        load, avail = flat.load, flat.avail
    else:
        load, avail = instance_vectors(tree, flat)

    # (budget, distance) each node receives from its parent; the
    # destination sends (k, 1) to the root (Algorithm 4 line 2).
    budget_vec = np.zeros(n, dtype=np.int64)
    dist_vec = np.ones(n, dtype=np.int64)
    budget_vec[flat.index[gathered.root]] = budget

    chosen: list[np.ndarray] = []
    for start, stop in flat.level_slices:
        level = np.arange(start, stop)
        leaf_mask = flat.leaf[start:stop]

        leaves = level[leaf_mask]
        if leaves.size:
            # Algorithm 4 lines 4-5, adapted per semantics (_leaf_is_blue).
            blue_leaf = (budget_vec[leaves] > 0) & avail[leaves]
            if not gathered.exact_k:
                blue_leaf &= load[leaves] > 1
            chosen.append(leaves[blue_leaf])

        internal = level[~leaf_mask]
        if not internal.size:
            continue
        l_params = dist_vec[internal]
        budgets = budget_vec[internal]
        node_blue = decide(
            flat.y_blue[l_params, budgets, internal],
            flat.y_red[l_params, budgets, internal],
        )
        chosen.append(internal[node_blue])
        child_distance = np.where(node_blue, 1, l_params + 1)

        # Children c_C .. c_2 take the breadcrumb budgets; the running
        # remainder mirrors the reference's descending-stage walk.
        remaining = budgets.copy()
        counts = flat.num_children[internal]
        for stage in range(int(counts.max()), 1, -1):
            active = counts >= stage
            nodes = internal[active]
            slot = flat.stage_offset[nodes] + (stage - 2)
            l_sel = l_params[active]
            r_sel = remaining[active]
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

    # A negative assignment means inconsistent tables; every non-root node's
    # budget was written by its parent above, so one pass over the levels
    # below the root is the batched equivalent of the reference's per-child
    # guard.
    for start, stop in flat.level_slices[1:]:
        window = budget_vec[start:stop]
        if window.size and int(window.min()) < 0:
            offender = flat.order[start + int(np.argmin(window))]
            raise PlacementError(
                f"traceback assigned a negative budget to {offender!r}; "
                "the gather tables are inconsistent"
            )

    blue = frozenset(
        flat.order[position]
        for position in (np.concatenate(chosen) if chosen else ())
    )
    if len(blue) > budget:
        raise PlacementError(
            f"traceback selected {len(blue)} blue nodes for budget {budget}; "
            "the gather tables are inconsistent"
        )
    return blue


def soar_color_compiled(
    tree: TreeNetwork,
    gathered: GatherResult,
    budget: int | None = None,
) -> frozenset[NodeId]:
    """The batched trace with its colour decisions in the C backend.

    Identical traversal (and identical placements) as
    :func:`soar_color_batched`; the per-level ``y_blue < y_red``
    comparisons run through the compiled ``strict_less`` kernel of
    :mod:`repro.core.engine_compiled`, falling back to :func:`np.less`
    when the C backend is unavailable.  Registered as ``"compiled"`` so a
    ``Solver(engine="compiled", color="compiled")`` configuration is
    uniformly valid.
    """
    return soar_color_batched(tree, gathered, budget=budget, _decide=strict_less)


#: Name of the level-batched colour kernel (the default).
BATCHED_COLOR: str = "batched"
#: Name of the per-node reference trace of Algorithm 4.
REFERENCE_COLOR: str = "reference"
#: Name of the batched kernel with C-backend decisions.
COMPILED_COLOR: str = "compiled"
#: Kernel used when callers do not ask for a specific one.
DEFAULT_COLOR: str = BATCHED_COLOR

#: Registry of colour kernels, keyed by their public name (the colour-phase
#: counterpart of :data:`repro.core.engine.ENGINES`).
COLOR_KERNELS: dict[str, Callable[..., frozenset[NodeId]]] = {
    BATCHED_COLOR: soar_color_batched,
    REFERENCE_COLOR: soar_color,
    COMPILED_COLOR: soar_color_compiled,
}

#: Engines with no same-named colour kernel declare which kernel traces
#: their colour phase here (the registry-coherence lint cross-checks
#: this against :data:`repro.core.engine.ENGINES`): the ``flat`` gather
#: engine colours with the batched kernel.
ENGINE_COLOR_FALLBACKS: dict[str, str] = {
    "flat": BATCHED_COLOR,
}


def trace_color(
    tree: TreeNetwork,
    gathered: GatherResult,
    budget: int | None = None,
    color: str = DEFAULT_COLOR,
) -> frozenset[NodeId]:
    """Trace a placement with the named colour kernel.

    ``"batched"`` (default), ``"compiled"``, or ``"reference"``; all
    produce identical placements, the reference kernel is retained as
    ground truth for differential testing — mirroring
    :func:`repro.core.engine.gather`.
    """
    try:
        kernel = COLOR_KERNELS[color]
    except KeyError:
        known = ", ".join(sorted(COLOR_KERNELS))
        raise ValueError(f"unknown colour kernel {color!r}; expected one of: {known}")
    return kernel(tree, gathered, budget=budget)
