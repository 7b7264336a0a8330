"""Contending placement strategies the paper compares SOAR against.

Section 3 introduces three "simple, yet reasonable" strategies and Section 5
evaluates them (plus the trivial all-red / all-blue extremes):

* **Top** — pick the ``k`` available switches closest to the root (ties
  broken by breadth-first order), aiming to compress traffic near the top
  of the tree,
* **Max** — pick the ``k`` available switches with the largest load
  (the appendix uses the highest *degree* on scale-free trees; both
  variants are provided),
* **Level** — for complete binary trees, pick an entire level as the blue
  set, partitioning the network into similar-size aggregated subtrees,
* **all-red** — no aggregation at all (the normalization baseline),
* **all-blue** — aggregation everywhere (the reference lower curve).

All strategies honour the availability set Λ and the budget ``k``, which is
what the online multi-workload experiments of Section 5.2 rely on.  A
uniformly random placement is included as an extra sanity baseline.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.solver import Solver
from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import InvalidBudgetError

#: A placement strategy maps (tree, budget) to a set of blue switches.
PlacementStrategy = Callable[[TreeNetwork, int], frozenset[NodeId]]


def _check_budget(budget: int) -> int:
    if budget < 0:
        raise InvalidBudgetError(f"budget must be non-negative, got {budget}")
    return int(budget)


def _stable_key(node: NodeId) -> str:
    """Deterministic tie-breaking key for arbitrary (hashable) node ids."""
    return repr(node)


def all_red(tree: TreeNetwork, budget: int = 0) -> frozenset[NodeId]:
    """The empty placement: every switch forwards without aggregating."""
    _check_budget(budget)
    return frozenset()


def all_blue(tree: TreeNetwork, budget: int | None = None) -> frozenset[NodeId]:
    """Colour every switch blue, ignoring both the budget and Λ.

    The paper uses the unrestricted all-blue solution purely as a reference
    curve (its cost equals the number of loaded links weighted by ρ).
    """
    return frozenset(tree.switches)


def _subtree_loads(tree: TreeNetwork) -> dict[NodeId, int]:
    """Total subtree load of every switch, computed in one post-order pass."""
    totals: dict[NodeId, int] = {}
    for switch in tree.switches:  # children before parents
        totals[switch] = tree.load(switch) + sum(
            totals[child] for child in tree.children(switch)
        )
    return totals


def top_strategy(tree: TreeNetwork, budget: int) -> frozenset[NodeId]:
    """Pick the ``k`` available switches closest to the root.

    Ties between switches at the same depth are broken towards the switch
    whose subtree carries the larger load (aggregating it saves more), which
    matches the choice shown in Figure 2a of the paper, then by name.
    """
    budget = _check_budget(budget)
    if budget == 0:
        return frozenset()
    subtree_load = _subtree_loads(tree)
    candidates = sorted(
        (s for s in tree.switches if s in tree.available),
        key=lambda s: (tree.depth(s), -subtree_load[s], _stable_key(s)),
    )
    return frozenset(candidates[:budget])


def bottom_strategy(tree: TreeNetwork, budget: int) -> frozenset[NodeId]:
    """Pick the ``k`` available switches farthest from the root.

    Not evaluated in the paper; included as the natural mirror image of
    *Top* for ablation studies.
    """
    budget = _check_budget(budget)
    if budget == 0:
        return frozenset()
    candidates = sorted(
        (s for s in tree.switches if s in tree.available),
        key=lambda s: (-tree.depth(s), _stable_key(s)),
    )
    return frozenset(candidates[:budget])


def max_load_strategy(tree: TreeNetwork, budget: int) -> frozenset[NodeId]:
    """Pick the ``k`` available switches with the largest load (paper's *Max*)."""
    budget = _check_budget(budget)
    if budget == 0:
        return frozenset()
    candidates = sorted(
        (s for s in tree.switches if s in tree.available),
        key=lambda s: (-tree.load(s), _stable_key(s)),
    )
    return frozenset(candidates[:budget])


def max_degree_strategy(tree: TreeNetwork, budget: int) -> frozenset[NodeId]:
    """Pick the ``k`` available switches with the highest degree.

    This is the *Max* variant Appendix B applies to scale-free trees, where
    load is uniform and degree is the natural notion of importance.
    """
    budget = _check_budget(budget)
    if budget == 0:
        return frozenset()
    candidates = sorted(
        (s for s in tree.switches if s in tree.available),
        key=lambda s: (-(tree.num_children(s) + 1), _stable_key(s)),
    )
    return frozenset(candidates[:budget])


def level_strategy(tree: TreeNetwork, budget: int) -> frozenset[NodeId]:
    """Pick a whole level of the tree as the blue set (paper's *Level*).

    Designed for complete binary trees: the strategy selects the deepest
    level that still fits in the budget once restricted to available
    switches, so the network is partitioned into similar-sized aggregated
    subtrees.  If not even the root level fits (budget 0), nothing is
    selected.  On irregular trees the "level" is the set of switches at
    equal depth, which is the natural generalization.
    """
    budget = _check_budget(budget)
    if budget == 0:
        return frozenset()
    best: frozenset[NodeId] = frozenset()
    for level in tree.levels():
        available = [s for s in level if s in tree.available]
        if not available:
            continue
        if len(available) <= budget:
            best = frozenset(available)  # deeper levels overwrite shallower ones
    return best


def random_strategy(
    tree: TreeNetwork,
    budget: int,
    rng: np.random.Generator | int | None = None,
) -> frozenset[NodeId]:
    """Pick ``k`` available switches uniformly at random (sanity baseline)."""
    budget = _check_budget(budget)
    candidates = sorted(tree.available, key=_stable_key)
    if budget == 0 or not candidates:
        return frozenset()
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    count = min(budget, len(candidates))
    chosen = generator.choice(len(candidates), size=count, replace=False)
    return frozenset(candidates[int(index)] for index in chosen)


#: Shared stateless solver behind :func:`soar_strategy` (default backend,
#: at-most-k semantics).
_SOAR: Solver = Solver()


def soar_strategy(tree: TreeNetwork, budget: int) -> frozenset[NodeId]:
    """The optimal placement computed by SOAR, wrapped in the strategy signature."""
    return _SOAR.solve(tree, budget).blue_nodes


#: Strategies plotted in Figures 6 and 7, keyed by the names used in the paper.
PAPER_STRATEGIES: dict[str, PlacementStrategy] = {
    "Top": top_strategy,
    "Max": max_load_strategy,
    "Level": level_strategy,
    "SOAR": soar_strategy,
}

#: Every named strategy the library ships (superset of the paper's).
ALL_STRATEGIES: dict[str, PlacementStrategy] = {
    **PAPER_STRATEGIES,
    "MaxDegree": max_degree_strategy,
    "Bottom": bottom_strategy,
    "Random": random_strategy,
    "AllRed": all_red,
    "AllBlue": all_blue,
}


def get_strategy(name: str) -> PlacementStrategy:
    """Look up a strategy by its canonical name (case-insensitive)."""
    lowered = {key.lower(): value for key, value in ALL_STRATEGIES.items()}
    try:
        return lowered[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown strategy {name!r}; expected one of {sorted(ALL_STRATEGIES)}"
        ) from exc
