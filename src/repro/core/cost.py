"""Utilization complexity and related cost metrics.

This module implements the objective function of the φ-BIC problem:

* :func:`utilization_cost` — Eq. (1): ``phi(T, L, U) = sum_e msg_e * rho(e)``,
* :func:`utilization_cost_barrier` — the equivalent "barrier" formulation of
  Lemma 4.2 / Eq. (3), expressed in terms of each node's closest blue
  ancestor (used both as an independent cross-check and as the conceptual
  basis of the SOAR dynamic program),
* :func:`per_link_utilization` — the per-link breakdown used by the paper's
  worked examples (Figures 2 and 3 annotate each link with its utilization),
* :func:`byte_cost` — the byte complexity of Section 5.3 given a message-size
  model.

Cost kernels
------------
:func:`utilization_cost` is the reference: the per-node post-order Python
walk of Algorithm 1's accounting
(:func:`~repro.core.reduce_op.link_message_counts`), which tests call
directly as ground truth.  Two batched kernels evaluate the same Eq. (1):

:func:`utilization_cost_flat` (``numpy``)
    Level-batched passes over the flat node order of
    :mod:`repro.core.flat`: every tree level's message counts resolve in
    one vectorized step, and the final reduction walks the post-order
    permutation so the floating-point summation order is *identical* to
    the reference.  :func:`evaluate_cost` is this kernel, and
    :func:`utilization_costs_flat` runs it over a batch of blue masks as
    the ``numpy`` backend's ``costs``.

:func:`utilization_costs_compiled` (``compiled``)
    The same message counts and the same post-order sum for a whole batch
    of blue masks in one C call (``repro_utilization`` of
    :mod:`repro.core.engine_compiled`): the ``compiled`` backend's
    ``costs``, which is how :meth:`~repro.core.solver.GatherTable.sweep`
    recomputes a sweep's costs when the C kernels built.

All kernels return the same float bit for bit
(``tests/test_cost_kernels.py`` and ``tests/test_trace_kernels.py``
enforce this on the seeded generator profiles, near-ties and straddling Λ
included).  A gather-table cache hit is a colour trace plus this cost
recompute, which is why the batched kernels exist.  Pass a prebuilt
:class:`~repro.core.flat.FlatCostModel` (``model=``) when evaluating many
placements over one structure so the metadata is built once.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.engine_compiled import utilization_costs
from repro.core.flat import FlatCostModel, cost_model_for, traced_vectors
from repro.core.reduce_op import link_message_counts, validate_placement
from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import PlacementError


def per_link_utilization(
    tree: TreeNetwork,
    blue_nodes: Iterable[NodeId],
    loads: Mapping[NodeId, int] | None = None,
    validate: bool = True,
) -> dict[NodeId, float]:
    """Return ``msg_e * rho(e)`` for every link, keyed by the child switch."""
    counts = link_message_counts(tree, blue_nodes, loads=loads, validate=validate)
    return {switch: counts[switch] * tree.rho(switch) for switch in counts}


def utilization_cost(
    tree: TreeNetwork,
    blue_nodes: Iterable[NodeId],
    loads: Mapping[NodeId, int] | None = None,
    validate: bool = True,
) -> float:
    """Compute the network utilization cost ``phi(T, L, U)`` of Eq. (1)."""
    counts = link_message_counts(tree, blue_nodes, loads=loads, validate=validate)
    return float(sum(counts[switch] * tree.rho(switch) for switch in counts))


# --------------------------------------------------------------------------- #
# the level-batched flat cost kernel
# --------------------------------------------------------------------------- #


def flat_link_message_counts(
    model: FlatCostModel,
    blue_mask: np.ndarray,
    load: np.ndarray,
) -> np.ndarray:
    """``msg_e`` for every link as an int64 array in flat node order.

    One vectorized pass per tree level, deepest first: a level's arrivals
    are its accumulated child messages plus its local loads, blue nodes
    collapse theirs to a single message, and the outgoing counts scatter
    onto the parents (all of whom sit in the next-shallower slab).  The
    counts are exact integers, so this stage introduces no rounding at
    all — bit-identity with the reference is decided purely by the final
    weighted reduction.
    """
    n = len(model.order)
    outgoing = np.empty(n, dtype=np.int64)
    incoming = np.zeros(n, dtype=np.int64)
    for start, stop in reversed(model.level_slices):
        arrived = incoming[start:stop] + load[start:stop]
        slab = np.where(blue_mask[start:stop], 1, arrived)
        outgoing[start:stop] = slab
        targets = model.parent[start:stop]
        live = targets >= 0
        np.add.at(incoming, targets[live], slab[live])
    return outgoing


def _flat_contributions(
    tree: TreeNetwork,
    blue_nodes: Iterable[NodeId],
    loads: Mapping[NodeId, int] | None,
    validate: bool,
    model: FlatCostModel | None,
) -> tuple[FlatCostModel, np.ndarray]:
    """Per-link ``msg_e * rho(e)`` in *post-order*, shared by the flat kernels."""
    blue = validate_placement(tree, blue_nodes) if validate else frozenset(blue_nodes)
    if model is None:
        model = cost_model_for(tree)
    load = model.loads_for(tree, loads)
    counts = flat_link_message_counts(model, _blue_mask(model, blue), load)
    return model, (counts * model.rho)[model.postorder]


def _blue_mask(model: FlatCostModel, blue: frozenset[NodeId]) -> np.ndarray:
    """``blue`` as a bool mask in ``model``'s flat order."""
    mask = np.zeros(len(model.order), dtype=bool)
    index = model.index
    for node in blue:
        position = index.get(node)
        if position is not None:  # unknown blue ids are ignored, as reference
            mask[position] = True
    return mask


def utilization_cost_flat(
    tree: TreeNetwork,
    blue_nodes: Iterable[NodeId],
    loads: Mapping[NodeId, int] | None = None,
    validate: bool = True,
    model: FlatCostModel | None = None,
) -> float:
    """Eq. (1) evaluated by the level-batched flat kernel.

    Bit-identical to :func:`utilization_cost` — the message counts are
    exact integers either way, the per-link products round identically,
    and the final sum walks the same post-order left to right (a plain
    sequential reduction, *not* numpy's pairwise ``sum``).  ``model``
    optionally supplies a prebuilt :class:`~repro.core.flat.FlatCostModel`
    for ``tree``'s structure; loads are taken from ``loads``, else from
    ``tree`` itself (the model's cached loads only apply to its own tree).
    """
    _, contributions = _flat_contributions(tree, blue_nodes, loads, validate, model)
    return float(sum(contributions.tolist()))


#: Eq. (1) of one placement: the flat kernel, under the name the library's
#: single-placement callers (experiments, apps, the online scheduler) use.
evaluate_cost = utilization_cost_flat


def per_link_utilization_flat(
    tree: TreeNetwork,
    blue_nodes: Iterable[NodeId],
    loads: Mapping[NodeId, int] | None = None,
    validate: bool = True,
    model: FlatCostModel | None = None,
) -> dict[NodeId, float]:
    """:func:`per_link_utilization` evaluated by the flat kernel.

    Returns the identical dictionary (same keys in the same post-order
    insertion order, same float values) with the per-node accounting walk
    replaced by the level-batched passes.
    """
    model, contributions = _flat_contributions(tree, blue_nodes, loads, validate, model)
    return dict(zip(model.postorder_nodes, contributions.tolist()))


def closest_blue_ancestor_distance(
    tree: TreeNetwork,
    node: NodeId,
    blue_nodes: frozenset[NodeId],
) -> int:
    """Return the number of edges from ``node`` to ``p*_node``.

    ``p*_node`` is the closest strict blue ancestor of ``node`` if one
    exists, and the destination otherwise (Lemma 4.2).
    """
    distance = 0
    current = node
    while True:
        current = tree.parent(current)
        distance += 1
        if current == tree.destination or current in blue_nodes:
            return distance


def utilization_cost_barrier(
    tree: TreeNetwork,
    blue_nodes: Iterable[NodeId],
    loads: Mapping[NodeId, int] | None = None,
) -> float:
    """Compute ``phi`` via the barrier re-formulation of Lemma 4.2 (Eq. 3).

    ``phi = sum_{v in U} rho(v, p*_v) + sum_{v not in U} L(v) * rho(v, p*_v)``
    where ``p*_v`` is the closest blue ancestor of ``v`` (or the destination).
    The value is identical to :func:`utilization_cost`; having both lets the
    test-suite cross-check the implementations against each other.
    """
    blue = validate_placement(tree, blue_nodes)
    load_of = tree.load if loads is None else lambda s: int(loads.get(s, 0))

    total = 0.0
    for switch in tree.switches:
        distance = closest_blue_ancestor_distance(tree, switch, blue)
        path_cost = tree.path_rho(switch, distance)
        if switch in blue:
            total += path_cost
        else:
            total += load_of(switch) * path_cost
    return float(total)


def all_red_cost(
    tree: TreeNetwork,
    loads: Mapping[NodeId, int] | None = None,
) -> float:
    """Utilization of the all-red solution (no aggregation anywhere)."""
    return utilization_cost(tree, frozenset(), loads=loads, validate=False)


def all_blue_cost(
    tree: TreeNetwork,
    loads: Mapping[NodeId, int] | None = None,
    respect_availability: bool = False,
) -> float:
    """Utilization when every switch aggregates.

    By default the availability set Λ is ignored (the paper uses the
    unrestricted all-blue solution purely as a lower-bound reference curve);
    pass ``respect_availability=True`` to colour only the switches in Λ.
    """
    blue = tree.available if respect_availability else frozenset(tree.switches)
    return utilization_cost(tree, blue, loads=loads, validate=False)


def normalized_utilization(
    tree: TreeNetwork,
    blue_nodes: Iterable[NodeId],
    loads: Mapping[NodeId, int] | None = None,
) -> float:
    """Utilization of ``blue_nodes`` divided by the all-red utilization.

    This is the quantity plotted on the y-axis of Figures 6, 7, 8a, 10 and
    11 of the paper.  A value of ``alpha`` means the placement incurs an
    ``alpha`` fraction of the cost of performing the Reduce without any
    in-network aggregation.
    """
    baseline = all_red_cost(tree, loads=loads)
    if baseline == 0.0:
        return 0.0
    return utilization_cost(tree, blue_nodes, loads=loads) / baseline


def cost_reduction(
    tree: TreeNetwork,
    blue_nodes: Iterable[NodeId],
    loads: Mapping[NodeId, int] | None = None,
) -> float:
    """Fractional saving compared to all-red: ``1 - normalized_utilization``."""
    return 1.0 - normalized_utilization(tree, blue_nodes, loads=loads)


def byte_cost(link_bytes: Mapping[NodeId, float], tree: TreeNetwork) -> float:
    """Aggregate a per-link byte map into the byte complexity.

    The byte complexity of Section 5.3 weights the bytes crossing each link
    by the per-message link time only implicitly (the paper evaluates it for
    constant rates); we follow the paper and report the plain byte total.
    ``tree`` is accepted for signature symmetry and future rate-weighted
    variants but only used for validation of the keys.
    """
    for switch in link_bytes:
        if not tree.is_switch(switch):
            raise KeyError(f"byte map references unknown switch {switch!r}")
    return float(sum(link_bytes.values()))


# --------------------------------------------------------------------------- #
# the backends' batched costs
# --------------------------------------------------------------------------- #


def utilization_costs_flat(
    tree: TreeNetwork,
    masks: np.ndarray,
    model: FlatCostModel,
) -> np.ndarray:
    """Eq. (1) of a batch of blue masks over ``tree``, by the numpy kernel.

    The ``numpy`` backend's ``costs``, with the contract of
    :func:`utilization_costs_compiled`: ``masks`` is ``(B, n)`` in
    ``model``'s flat order, row ``b`` of the result is bit-identical to
    :func:`utilization_cost_flat` of mask ``b`` with ``tree``'s loads, and
    the first blue node outside ``tree``'s Λ (row-major) raises
    :class:`~repro.exceptions.PlacementError`.
    """
    load, avail = traced_vectors(tree, model)
    blue = np.asarray(masks, dtype=bool)
    outside = np.argwhere(blue & ~avail)
    if outside.size:
        node = model.order[int(outside[0, 1])]
        raise PlacementError(f"blue node {node!r} is not in the availability set Λ")
    costs = np.empty(blue.shape[0], dtype=np.float64)
    for row, mask in enumerate(blue):
        counts = flat_link_message_counts(model, mask, load)
        costs[row] = sum(((counts * model.rho)[model.postorder]).tolist())
    return costs


def utilization_costs_compiled(
    tree: TreeNetwork,
    masks: np.ndarray,
    model: FlatCostModel,
) -> np.ndarray:
    """Eq. (1) of a batch of blue masks over ``tree``, in one C call.

    The ``compiled`` backend's ``costs``: ``masks`` is ``(B, n)`` in
    ``model``'s flat order.  Row ``b`` of the result is bit-identical to
    :func:`utilization_cost_flat` of mask ``b`` with ``tree``'s loads, and
    a blue node outside ``tree``'s Λ raises the same
    :class:`~repro.exceptions.PlacementError`.  Requires the C backend
    (:data:`~repro.core.engine_compiled.HAVE_COMPILED`).
    """
    load, avail = traced_vectors(tree, model)
    return utilization_costs(model, masks, avail, load)
