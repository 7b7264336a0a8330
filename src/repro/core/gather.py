"""SOAR-Gather: the dynamic-programming table construction (Algorithm 3).

The gather phase scans the switches from the leaves towards the root and, for
every node ``v``, computes the table

``X_v(l, i)`` — the minimum possible value of the parameterized potential
``pi_v(l, U)`` over all sets ``U`` of at most ``i`` blue nodes inside the
subtree ``T_v``, where ``l`` is the (hypothetical) distance between ``v`` and
its closest blue ancestor (or the destination when no blue ancestor exists).

The potential (Eq. 4 of the paper) charges every message leaving the subtree
for the whole path of ``l`` links up to that ancestor, which is exactly what
makes subtrees independently optimizable once ``l`` and the colour of the
parent side are fixed.

Two budget semantics are supported:

``exact_k=False`` (default, "at most k")
    ``X_v(l, i)`` minimizes over ``|U| <= i``.  This follows the prose of
    Definition 2.1 and can never be worse than the literal Eq. (2); a blue
    node is only used where it strictly helps.

``exact_k=True`` (paper-literal)
    Leaf entries follow Algorithm 3 lines 3-8 verbatim, reproducing the
    running-example tables of Figure 5.  For strictly positive leaf loads
    the two modes coincide.

Besides the ``X`` tables the gather phase records, for every node, the
colour decision and the per-child budget splits that achieved each minimum.
These "breadcrumbs" are what :mod:`repro.core.color` traces back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import InvalidBudgetError

#: Marker used in colour-choice tables.
RED: int = 0
BLUE: int = 1


@dataclass
class NodeTables:
    """Per-node output of SOAR-Gather.

    Attributes
    ----------
    x:
        Array of shape ``(D(v) + 1, k + 1)``: ``x[l, i]`` is the minimum
        potential of the subtree rooted at the node, for distance ``l`` to
        the closest blue ancestor and budget ``i``.
    y_blue, y_red:
        The final-stage ``Y^{C(v)}`` tables (same shape as ``x``) used to
        decide the node's colour.  For leaves these equal the blue / red
        leaf expressions.
    choice:
        ``choice[l, i]`` is :data:`BLUE` when colouring the node blue attains
        the minimum in ``x[l, i]`` (strictly better than red), else
        :data:`RED`.
    splits_blue, splits_red:
        For a node with ``C(v) = c`` children, lists of ``c - 1`` integer
        arrays (children ``c_2 .. c_C``).  ``splits_red[m - 2][l, i]`` is the
        number of blue nodes assigned to the subtree of child ``c_m`` when
        the node is red, holds budget ``i`` at stage ``m`` and parameter
        ``l``; analogously for blue.  Child ``c_1`` receives whatever budget
        remains (minus one if the node itself is blue).
    """

    x: np.ndarray
    y_blue: np.ndarray
    y_red: np.ndarray
    choice: np.ndarray
    splits_blue: list[np.ndarray] = field(default_factory=list)
    splits_red: list[np.ndarray] = field(default_factory=list)


@dataclass
class GatherResult:
    """Complete output of the gather phase.

    Attributes
    ----------
    tables:
        Mapping from every switch to its :class:`NodeTables`.
    root:
        The root switch ``r`` of the network the tables were built for.
    budget:
        The effective budget used when building the tables (the requested
        ``k`` clamped to the number of available switches).
    requested_budget:
        The budget the caller asked for.
    exact_k:
        Which budget semantics the tables encode; a backend result's is
        its ``flat.exact_k``.
    flat:
        The :class:`~repro.core.flat.FlatTables` layout of the tables,
        attached by :func:`repro.core.engine.gather` at construction;
        ``None`` for results of :func:`soar_gather`, which only the
        reference walks read.
    cost_model:
        The :class:`~repro.core.flat.FlatCostModel` the backends' cost
        kernels evaluate placements traced from these tables with; built lazily
        by :meth:`repro.core.solver.GatherTable.place` and cached here so
        budget sweeps over one gather price the metadata once.
    """

    tables: dict[NodeId, NodeTables]
    root: NodeId
    budget: int
    requested_budget: int
    exact_k: bool
    flat: "object | None" = field(default=None, repr=False, compare=False)
    cost_model: "object | None" = field(default=None, repr=False, compare=False)

    @property
    def optimal_cost(self) -> float:
        """``X_r(1, budget)``: the minimum utilization achievable (Eq. 6)."""
        return float(self.tables[self.root].x[1, self.budget])

    def cost_for_budget(self, budget: int | None = None) -> float:
        """Return the optimal utilization for ``budget`` (default: full budget).

        Because the gather tables carry every column ``0 .. k`` this lookup
        answers the whole budget sweep of Figure 3 from a single gather run.
        """
        if budget is None:
            budget = self.budget
        budget = min(int(budget), self.budget)
        return float(self.tables[self.root].x[1, budget])


def normalize_budget(tree: TreeNetwork, budget: int) -> int:
    """Validate ``budget`` and clamp it to the number of available switches."""
    if not isinstance(budget, (int, np.integer)) or isinstance(budget, bool):
        raise InvalidBudgetError(f"budget must be an integer, got {budget!r}")
    if budget < 0:
        raise InvalidBudgetError(f"budget must be non-negative, got {budget}")
    return int(min(int(budget), len(tree.available)))


def leaf_tables(
    tree: TreeNetwork,
    node: NodeId,
    budget: int,
    exact_k: bool,
) -> NodeTables:
    """Base case of the dynamic program (Algorithm 3 lines 1-9).

    A leaf's tables are a closed form of its load, its ρ-path prefix and
    its Λ membership.  The flat tables store no block for a leaf and
    build its tables here on demand
    (:meth:`~repro.core.flat.FlatTables.node_tables`); the kernels
    compute the same ``x`` rows where a stage reads a leaf child.
    """
    rho_prefix = np.asarray(tree.path_rho_prefix(node), dtype=np.float64)
    depth = tree.depth(node)
    load = tree.load(node)
    available = node in tree.available

    red_column = rho_prefix * float(load)

    if exact_k:
        # Exactly-i semantics: a leaf subtree holds a single switch, so only
        # i = 0 (red) and i = 1 (blue, if available) are feasible; any larger
        # budget is infeasible and propagates upward as infinity.
        y_red = np.full((depth + 1, budget + 1), np.inf, dtype=np.float64)
        y_red[:, 0] = red_column
        y_blue = np.full_like(y_red, np.inf)
        if available and budget >= 1:
            y_blue[:, 1] = rho_prefix
        x = np.minimum(y_red, y_blue)
    else:
        # At-most-i semantics: extra budget can always be left unused.
        y_red = np.tile(red_column[:, None], (1, budget + 1))
        y_blue = np.full_like(y_red, np.inf)
        if available and budget >= 1:
            y_blue[:, 1:] = rho_prefix[:, None]
        x = np.minimum(y_red, y_blue)

    choice = np.where(y_blue < y_red, BLUE, RED).astype(np.uint8)
    return NodeTables(x=x, y_blue=y_blue, y_red=y_red, choice=choice)


def _combine_child(
    previous: np.ndarray,
    child_row: np.ndarray,
    budget: int,
    blue: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the ``mCost`` (min,+)-convolution over the budget axis.

    ``previous`` has shape ``(H, k + 1)`` and holds ``Y^{m-1}`` for every
    parameter ``l``; ``child_row`` has shape ``(H, k + 1)`` and holds
    ``X_{c_m}`` already indexed at the parameter the child will see
    (``l + 1`` for a red parent, ``1`` for a blue parent).  Returns the new
    ``Y^m`` table and the argmin split (budget given to child ``c_m``).

    For a blue parent the split ``j`` ranges over ``0 <= j < i`` because the
    parent itself consumes one unit of the budget that must remain on the
    ``previous`` side (Algorithm 3 line 32).
    """
    height = previous.shape[0]
    best = np.full((height, budget + 1), np.inf, dtype=np.float64)
    best_split = np.zeros((height, budget + 1), dtype=np.int32)

    for j in range(budget + 1):
        # candidate[l, i] = previous[l, i - j] + child_row[l, j] for i >= j
        start = j if not blue else j + 1  # blue requires i - j >= 1
        if start > budget:
            break
        prev_slice = previous[:, start - j : budget + 1 - j]
        candidate = prev_slice + child_row[:, j : j + 1]
        target = best[:, start : budget + 1]
        improved = candidate < target
        target[improved] = candidate[improved]
        split_target = best_split[:, start : budget + 1]
        split_target[improved] = j
    return best, best_split


def _internal_tables(
    tree: TreeNetwork,
    node: NodeId,
    children_x: list[np.ndarray],
    budget: int,
) -> NodeTables:
    """Inductive step of the dynamic program (Algorithm 3 lines 10-29)."""
    rho_prefix = np.asarray(tree.path_rho_prefix(node), dtype=np.float64)
    depth = tree.depth(node)
    load = tree.load(node)
    available = node in tree.available
    height = depth + 1

    # Child tables indexed at the parameter each child will observe:
    #   red parent at parameter l  -> child sees l + 1,
    #   blue parent                -> child sees 1.
    # Children are one level deeper, so their tables have ``height + 1`` rows
    # and rows 1 .. height are exactly the l + 1 values we need.
    child_rows_red = [child_x[1 : height + 1, :] for child_x in children_x]
    child_rows_blue = [np.tile(child_x[1, :][None, :], (height, 1)) for child_x in children_x]

    upward_red = rho_prefix * float(load)
    upward_blue = rho_prefix

    # --- stage m = 1 -----------------------------------------------------
    y_red = child_rows_red[0] + upward_red[:, None]
    y_blue = np.full((height, budget + 1), np.inf, dtype=np.float64)
    if available and budget >= 1:
        # X_{c_1}(1, i - 1) + rho(v, A^l_v)
        y_blue[:, 1:] = child_rows_blue[0][:, : budget] + upward_blue[:, None]

    splits_red: list[np.ndarray] = []
    splits_blue: list[np.ndarray] = []

    # --- stages m = 2 .. C(v) --------------------------------------------
    for child_red, child_blue in zip(child_rows_red[1:], child_rows_blue[1:]):
        y_red, split_red = _combine_child(y_red, child_red, budget, blue=False)
        splits_red.append(split_red)
        if available and budget >= 1:
            y_blue, split_blue = _combine_child(y_blue, child_blue, budget, blue=True)
        else:
            split_blue = np.zeros((height, budget + 1), dtype=np.int32)
        splits_blue.append(split_blue)

    x = np.minimum(y_blue, y_red)
    choice = np.where(y_blue < y_red, BLUE, RED).astype(np.uint8)
    return NodeTables(
        x=x,
        y_blue=y_blue,
        y_red=y_red,
        choice=choice,
        splits_blue=splits_blue,
        splits_red=splits_red,
    )


def soar_gather(
    tree: TreeNetwork,
    budget: int,
    exact_k: bool = False,
) -> GatherResult:
    """Run the SOAR-Gather phase over the whole tree.

    Parameters
    ----------
    tree:
        The tree network (topology, rates, loads, availability Λ).
    budget:
        The bound ``k`` on the number of blue nodes.  Internally clamped to
        ``|Λ|`` since additional budget can never be spent.
    exact_k:
        Budget semantics; see the module docstring.

    Returns
    -------
    GatherResult
        All per-node DP tables plus metadata, ready to be traced back by
        :func:`repro.core.color.soar_color`.
    """
    effective = normalize_budget(tree, budget)
    tables: dict[NodeId, NodeTables] = {}

    for node in tree.switches:  # post-order guarantees children are ready
        children = tree.children(node)
        if not children:
            tables[node] = leaf_tables(tree, node, effective, exact_k)
        else:
            children_x = [tables[child].x for child in children]
            tables[node] = _internal_tables(tree, node, children_x, effective)

    return GatherResult(
        tables=tables,
        root=tree.root,
        budget=effective,
        requested_budget=int(budget),
        exact_k=exact_k,
    )
