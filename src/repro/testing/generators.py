"""Seeded random φ-BIC instance generators.

The differential and invariant test-suites (and downstream users fuzzing
their own extensions) need a steady stream of adversarial problem
instances: odd tree shapes, zero and heavily skewed loads, restricted
availability sets, degenerate budgets.  This module generates them from an
explicit :class:`numpy.random.Generator` so every instance is reproducible
from a seed.

Shapes
------
``uniform``
    Random recursive tree: switch ``i`` attaches to a uniformly random
    earlier switch.  Generates every labelled rooted tree shape with
    positive probability.
``kary``
    Complete k-ary tree (random arity 2-4) filled level by level.
``scale_free``
    Preferential attachment: parents are chosen with probability
    proportional to ``degree + 1`` (the RPA trees of Appendix B).
``path`` / ``star``
    Degenerate extremes: maximum depth, maximum fan-out.
``binary``
    Complete binary tree, the paper's ``BT(n)`` shape.

Load profiles
-------------
``zero`` (all loads 0), ``positive`` (uniform ``1 .. max_load``),
``skewed`` (bounded Zipf, mimicking the paper's power-law servers), and
``mixed`` (uniform ``0 .. max_load``, zeros included).

Rates are drawn from ``rate_choices``; the default choices are powers of
two, so every path cost is an exact dyadic float and differential tests can
assert bit-identical costs across backends.

Rate profiles
-------------
The argmin tie-breaking of the gather convolution (ascending-``j``,
strict-improvement-only updates) is easiest to get wrong exactly when many
candidate placements cost the same — which the dyadic default makes rare.
The *near-tie* rate profiles manufacture that pressure deliberately:

``dyadic``
    The default independent draw from ``rate_choices``.
``constant``
    One shared rate for every link: symmetric subtrees become *exactly*
    tied, so every argmin is a tie-break.
``near_tie``
    A shared base rate, each link perturbed by a factor ``1 ± 2^-8`` (or
    left exact) — candidates separated by tiny but strictly-ordered
    margins, punishing any ``<=`` vs ``<`` confusion.
``sibling_tie``
    Children of the same parent share one random dyadic rate: same-parent
    subtrees tie exactly while cross-level costs still vary.

Load-tie profiles
-----------------
Rates are only half of the tie surface: placements also tie when the
*loads* are symmetric.  :func:`random_tie_loads` mirrors the rate profiles
on the load function — ``constant`` (one shared load), ``near_tie``
(a shared base ± 1, the tightest possible integer near-tie), and
``sibling_tie`` (children of the same parent share a load) — so whole
sibling subtrees become exactly or almost cost-identical and every argmin
of the gather convolution and every colour decision is a tie-break.

Availability patterns
---------------------
:func:`patterned_availability` restricts Λ so that it *straddles* tied
families instead of sampling switches independently: ``sibling_split``
keeps a nonempty proper subset of every sibling group (some members of a
tied family are placeable, others are not, so the argmin must discriminate
between candidates a symmetric instance makes equal), and ``level_stripe``
admits alternating tree levels only (tied placements across adjacent
levels resolve to the admissible one).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.tree import NodeId, TreeNetwork

#: Tree shapes :func:`random_instance` can draw from.
SHAPES: tuple[str, ...] = ("uniform", "kary", "scale_free", "path", "star", "binary")
#: Load profiles :func:`random_instance` can draw from.
LOAD_PROFILES: tuple[str, ...] = ("zero", "positive", "skewed", "mixed")
#: Power-of-two rates: exact in binary floating point, so backend
#: comparisons are free of rounding noise.
DYADIC_RATES: tuple[float, ...] = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
#: Rate profiles :func:`random_rates` can draw from.
RATE_PROFILES: tuple[str, ...] = ("dyadic", "constant", "near_tie", "sibling_tie")
#: Relative perturbation of the ``near_tie`` profile (exact in binary FP).
NEAR_TIE_EPSILON: float = 2.0**-8
#: Load-tie profiles :func:`random_tie_loads` can draw from.
LOAD_TIE_PROFILES: tuple[str, ...] = ("constant", "near_tie", "sibling_tie")
#: Availability patterns :func:`patterned_availability` can draw from.
AVAILABILITY_PATTERNS: tuple[str, ...] = ("independent", "sibling_split", "level_stripe")


def random_parents(
    rng: np.random.Generator,
    num_switches: int,
    shape: str = "uniform",
) -> dict[NodeId, NodeId]:
    """Generate a parent map over switches ``0 .. n-1`` with the given shape.

    Switch 0 is always the root (child of the destination ``"d"``).
    """
    if num_switches < 1:
        raise ValueError(f"need at least one switch, got {num_switches}")
    parents: dict[NodeId, NodeId] = {0: "d"}
    if shape == "uniform":
        for node in range(1, num_switches):
            parents[node] = int(rng.integers(0, node))
    elif shape == "kary":
        arity = int(rng.integers(2, 5))
        for node in range(1, num_switches):
            parents[node] = (node - 1) // arity
    elif shape == "scale_free":
        # degree + 1 weights, as in repro.topology.scale_free.
        weights = np.ones(num_switches, dtype=np.float64)
        for node in range(1, num_switches):
            probabilities = weights[:node] / weights[:node].sum()
            parent = int(rng.choice(node, p=probabilities))
            parents[node] = parent
            weights[parent] += 1.0
            weights[node] += 1.0
    elif shape == "path":
        for node in range(1, num_switches):
            parents[node] = node - 1
    elif shape == "star":
        for node in range(1, num_switches):
            parents[node] = 0
    elif shape == "binary":
        for node in range(1, num_switches):
            parents[node] = (node - 1) // 2
    else:
        raise ValueError(f"unknown shape {shape!r}; expected one of {SHAPES}")
    return parents


def random_rates(
    rng: np.random.Generator,
    parents: dict[NodeId, NodeId],
    profile: str = "dyadic",
    rate_choices: Sequence[float] = DYADIC_RATES,
) -> dict[NodeId, float]:
    """Draw a rate for every link according to the named profile.

    ``parents`` is the parent map the rates belong to (the tie profiles
    need the tree structure: ``sibling_tie`` groups links by their parent
    endpoint).  See the module docstring for the profile semantics.
    """
    switches = list(parents)
    if profile == "dyadic":
        return {node: float(rng.choice(rate_choices)) for node in switches}
    if profile == "constant":
        base = float(rng.choice(rate_choices))
        return {node: base for node in switches}
    if profile == "near_tie":
        base = float(rng.choice(rate_choices))
        # delta in {-1, 0, +1}: perturbed links differ from the base by a
        # factor (1 ± 2^-8) — an exact float, so the near-ties are strictly
        # ordered rather than rounding back onto an exact tie.
        deltas = rng.integers(-1, 2, size=len(switches))
        return {
            node: base * (1.0 + float(delta) * NEAR_TIE_EPSILON)
            for node, delta in zip(switches, deltas)
        }
    if profile == "sibling_tie":
        group_rates: dict[NodeId, float] = {}
        rates: dict[NodeId, float] = {}
        for node in switches:
            parent = parents[node]
            if parent not in group_rates:
                group_rates[parent] = float(rng.choice(rate_choices))
            rates[node] = group_rates[parent]
        return rates
    raise ValueError(f"unknown rate profile {profile!r}; expected one of {RATE_PROFILES}")


def random_loads(
    rng: np.random.Generator,
    switches: Sequence[NodeId],
    profile: str = "mixed",
    max_load: int = 6,
) -> dict[NodeId, int]:
    """Draw a load for every switch according to the named profile."""
    if profile == "zero":
        return {node: 0 for node in switches}
    if profile == "positive":
        return {node: int(rng.integers(1, max_load + 1)) for node in switches}
    if profile == "skewed":
        # Bounded Zipf: most switches light, a few very heavy (the paper's
        # power-law server placement at small scale).
        return {node: int(min(rng.zipf(1.8), 8 * max_load)) for node in switches}
    if profile == "mixed":
        return {node: int(rng.integers(0, max_load + 1)) for node in switches}
    raise ValueError(f"unknown load profile {profile!r}; expected one of {LOAD_PROFILES}")


def random_availability(
    rng: np.random.Generator,
    switches: Sequence[NodeId],
    probability: float = 0.6,
) -> list[NodeId]:
    """A random Λ: every switch independently available with ``probability``.

    The result may be empty — a legal (if extreme) φ-BIC instance where the
    only feasible placement is all-red.
    """
    return [node for node in switches if rng.random() < probability]


def random_tie_loads(
    rng: np.random.Generator,
    parents: dict[NodeId, NodeId],
    profile: str = "constant",
    max_load: int = 6,
) -> dict[NodeId, int]:
    """Draw a *tie-inducing* load for every switch (see the module docstring).

    ``parents`` is the parent map the loads belong to (``sibling_tie``
    groups switches by their parent).  ``constant`` makes every placement
    family with symmetric rates cost-identical; ``near_tie`` separates them
    by the smallest integral margin possible (±1 around a shared base);
    ``sibling_tie`` ties exactly within sibling groups while cross-level
    loads still vary.
    """
    switches = list(parents)
    if profile == "constant":
        base = int(rng.integers(1, max_load + 1))
        return {node: base for node in switches}
    if profile == "near_tie":
        base = int(rng.integers(1, max_load + 1))
        deltas = rng.integers(-1, 2, size=len(switches))
        return {
            node: max(0, base + int(delta)) for node, delta in zip(switches, deltas)
        }
    if profile == "sibling_tie":
        group_loads: dict[NodeId, int] = {}
        loads: dict[NodeId, int] = {}
        for node in switches:
            parent = parents[node]
            if parent not in group_loads:
                group_loads[parent] = int(rng.integers(0, max_load + 1))
            loads[node] = group_loads[parent]
        return loads
    raise ValueError(
        f"unknown load-tie profile {profile!r}; expected one of {LOAD_TIE_PROFILES}"
    )


def patterned_availability(
    rng: np.random.Generator,
    tree: TreeNetwork,
    pattern: str = "independent",
    probability: float = 0.6,
) -> list[NodeId]:
    """A Λ restriction that straddles tied placement families.

    ``independent`` is the plain Bernoulli draw of
    :func:`random_availability`.  ``sibling_split`` keeps, for every
    sibling group of two or more, a uniformly random *nonempty proper*
    subset (singletons stay with probability 1/2), so a symmetric instance
    always has tied candidates on both sides of the Λ boundary.
    ``level_stripe`` admits only the switches of every other tree level
    (random parity), pitting tied same-subtree placements at adjacent
    depths against the restriction.  Either pattern may produce an empty
    Λ on degenerate trees — a legal all-red instance.
    """
    if pattern == "independent":
        return random_availability(rng, tree.switches, probability=probability)
    if pattern == "sibling_split":
        chosen: list[NodeId] = []
        for parent in (tree.destination, *tree.switches):
            group = tree.children(parent)
            if not group:
                continue
            if len(group) == 1:
                if rng.random() < 0.5:
                    chosen.append(group[0])
                continue
            count = int(rng.integers(1, len(group)))
            picks = rng.choice(len(group), size=count, replace=False)
            chosen.extend(group[int(i)] for i in picks)
        return chosen
    if pattern == "level_stripe":
        parity = int(rng.integers(0, 2))
        return [node for node in tree.switches if tree.depth(node) % 2 == parity]
    raise ValueError(
        f"unknown availability pattern {pattern!r}; "
        f"expected one of {AVAILABILITY_PATTERNS}"
    )


def random_instance(
    rng: np.random.Generator,
    shape: str | None = None,
    num_switches: int | None = None,
    max_switches: int = 12,
    load_profile: str | None = None,
    max_load: int = 6,
    rate_choices: Sequence[float] = DYADIC_RATES,
    rate_profile: str = "dyadic",
    restrict_availability: bool | None = None,
) -> TreeNetwork:
    """Draw one random φ-BIC instance.

    ``None`` parameters are themselves randomized: the shape and load
    profile are drawn uniformly, the size uniformly from
    ``1 .. max_switches``, and Λ is restricted to a random subset with
    probability 0.4 (full availability otherwise).  ``rate_profile``
    defaults to the historical independent-dyadic draw so existing seeded
    streams are unchanged; pass one of the tie profiles (see
    :data:`RATE_PROFILES`) for adversarial near-tie instances.
    """
    if shape is None:
        shape = str(rng.choice(SHAPES))
    if num_switches is None:
        num_switches = int(rng.integers(1, max_switches + 1))
    if load_profile is None:
        load_profile = str(rng.choice(LOAD_PROFILES))
    if restrict_availability is None:
        restrict_availability = bool(rng.random() < 0.4)

    parents = random_parents(rng, num_switches, shape=shape)
    switches = list(parents)
    rates = random_rates(rng, parents, profile=rate_profile, rate_choices=rate_choices)
    loads = random_loads(rng, switches, profile=load_profile, max_load=max_load)
    available = random_availability(rng, switches) if restrict_availability else None
    return TreeNetwork(parents, rates=rates, loads=loads, available=available)


def random_budget(rng: np.random.Generator, tree: TreeNetwork) -> int:
    """A budget between 0 and slightly above ``|Λ|`` (exercising clamping)."""
    return int(rng.integers(0, len(tree.available) + 2))


def instance_stream(
    seed: int,
    count: int,
    **kwargs,
) -> Iterator[tuple[TreeNetwork, int]]:
    """Yield ``count`` seeded ``(instance, budget)`` pairs.

    All keyword arguments are forwarded to :func:`random_instance`.  The
    stream is fully determined by ``seed``, so a failing instance can be
    reproduced from its position alone.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tree = random_instance(rng, **kwargs)
        yield tree, random_budget(rng, tree)


def near_tie_stream(
    seed: int,
    count: int,
    equalize_loads_probability: float = 0.5,
    availability_pattern_probability: float = 0.5,
    **kwargs,
) -> Iterator[tuple[TreeNetwork, int]]:
    """Yield ``count`` seeded adversarial near-tie ``(instance, budget)`` pairs.

    Cycles through the tie-inducing rate profiles (``constant`` /
    ``near_tie`` / ``sibling_tie``) and, with
    ``equalize_loads_probability``, additionally replaces the loads with a
    cycling load-tie profile (:func:`random_tie_loads`) — symmetric rates
    *and* symmetric loads make whole families of placements
    cost-identical, so every argmin in the gather convolution and every
    colour decision is a tie-break.  With
    ``availability_pattern_probability`` the instance's Λ is further
    restricted by a cycling straddling pattern
    (:func:`patterned_availability`), forcing the trace to discriminate
    between tied candidates on opposite sides of the Λ boundary.  Keyword
    arguments are forwarded to :func:`random_instance`.
    """
    rng = np.random.default_rng(seed)
    tie_profiles = tuple(profile for profile in RATE_PROFILES if profile != "dyadic")
    straddling = tuple(
        pattern for pattern in AVAILABILITY_PATTERNS if pattern != "independent"
    )
    for index in range(count):
        profile = tie_profiles[index % len(tie_profiles)]
        tree = random_instance(rng, rate_profile=profile, **kwargs)
        if rng.random() < equalize_loads_probability:
            parents = {switch: tree.parent(switch) for switch in tree.switches}
            tree = tree.with_loads(
                random_tie_loads(
                    rng,
                    parents,
                    profile=LOAD_TIE_PROFILES[index % len(LOAD_TIE_PROFILES)],
                )
            )
        if rng.random() < availability_pattern_probability:
            pattern = straddling[index % len(straddling)]
            tree = tree.with_available(patterned_availability(rng, tree, pattern))
        yield tree, random_budget(rng, tree)
