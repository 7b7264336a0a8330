"""Rooted tree network model used by every other part of the library.

The paper's system model (Section 2) is a weighted tree ``T = (V, E, w)``
where ``V`` is the set of switches plus a special destination server ``d``,
every edge is directed towards ``d``, every switch has a load ``L(s)``
(the number of servers attached to it), and every edge has a rate ``w(e)``
in messages per second.  The reciprocal ``rho(e) = 1 / w(e)`` is the
transmission time of a single message on the edge.

:class:`TreeNetwork` stores this model and precomputes the structural
queries every algorithm in the library relies on:

* parent / children relations and a post-order traversal of the switches,
* the depth ``D(v)`` of every node, measured in edges from ``v`` to the
  destination (``D(d) = 0``, ``D(r) = 1``),
* the cumulative path cost ``rho(v, A^l_v)`` of walking ``l`` edges upward
  from ``v`` (the parameterized potential of the SOAR dynamic program is
  indexed by exactly this quantity).

Instances are conceptually immutable: the "modify" helpers
(:meth:`TreeNetwork.with_loads`, :meth:`TreeNetwork.with_available`,
:meth:`TreeNetwork.with_rates`) return new objects sharing the topology.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import networkx as nx
import numpy as np

from repro.exceptions import (
    AvailabilityError,
    InvalidLoadError,
    InvalidRateError,
    TreeStructureError,
)

if TYPE_CHECKING:
    from repro.core.flat import FlatLayout

NodeId = Hashable

#: Default identifier of the destination server.
DEFAULT_DESTINATION: str = "d"


def _digest(parts: Iterable[str]) -> str:
    """Short hex digest of an iterable of canonical strings."""
    # Every part is hashed NUL-terminated, fed as one joined buffer rather
    # than two ``update`` calls per part (same bytes, same digest).
    parts = list(parts)
    joined = "\x00".join(parts) + "\x00" if parts else ""
    return hashlib.blake2b(joined.encode(), digest_size=16).hexdigest()


#: Modulus of the :class:`IncrementalDigest` additive combine (256 bits).
_COMBINE_BITS: int = 256
_COMBINE_MODULUS: int = 1 << _COMBINE_BITS


def _entry_digest(part: str) -> int:
    """256-bit digest of one canonical entry string (see IncrementalDigest)."""
    return int.from_bytes(
        hashlib.blake2b(part.encode(), digest_size=_COMBINE_BITS // 8).digest(), "big"
    )


class IncrementalDigest:
    """Order-independent digest of a set of canonical strings, maintainable
    under point updates.

    Entries combine by *addition modulo 2**256* of their individual
    blake2b digests (the AdHash multiset-hash construction), so the
    combined value is independent of insertion order and every ``add``
    has an exact inverse ``remove``.  This is what lets the placement
    service keep the Λ fingerprint current across admit/release/drain
    churn in O(changed switches) instead of re-digesting the whole set —
    while :func:`fingerprint_nodes` (defined on top of the same combine)
    remains the ground truth a maintained digest can be checked against
    at any time.

    Any incrementally-maintainable combine is necessarily homomorphic,
    which is weaker against *adversarially constructed* collisions than a
    chained hash over the sorted entries; the wide 256-bit additive group
    is the standard mitigation (finding colliding subsets is a hard
    lattice problem rather than GF(2) Gaussian elimination).  The inputs
    here are the operator's own switch ids, not attacker-chosen strings —
    digests that *are* fed attacker-adjacent data (request load mappings,
    :func:`fingerprint_loads`) stay on the chained construction.
    """

    __slots__ = ("_combined",)

    def __init__(self, parts: Iterable[str] = ()) -> None:
        self._combined = 0
        for part in parts:
            self.add(part)

    def add(self, part: str) -> None:
        """Fold one entry into the digest."""
        self._combined = (self._combined + _entry_digest(part)) % _COMBINE_MODULUS

    def remove(self, part: str) -> None:
        """Fold one entry out of the digest (the exact inverse of ``add``)."""
        self._combined = (self._combined - _entry_digest(part)) % _COMBINE_MODULUS

    def copy(self) -> "IncrementalDigest":
        clone = IncrementalDigest()
        clone._combined = self._combined
        return clone

    @classmethod
    def from_hexdigest(cls, hexdigest: str) -> "IncrementalDigest":
        """Resume a digest from a previously recorded :meth:`hexdigest`.

        The hex form is the combined group element verbatim, so a resumed
        digest behaves exactly like a :meth:`copy` of the instance that
        produced it — this is what lets :meth:`TreeNetwork.with_available`
        patch a memoized Λ fingerprint by the delta instead of re-digesting
        the whole set.
        """
        clone = cls()
        clone._combined = int(hexdigest, 16) % _COMBINE_MODULUS
        return clone

    def hexdigest(self) -> str:
        """Current combined digest (64 hex chars)."""
        return format(self._combined, f"0{_COMBINE_BITS // 4}x")


def fingerprint_loads(loads: Mapping[NodeId, int]) -> str:
    """Order-independent digest of a load function.

    Zero entries are skipped, so a mapping covering only the loaded switches
    (e.g. the per-leaf workloads of the online setting) digests identically
    to the full load function of a tree built from it — which is what lets
    the placement service key its cache on a request's loads without
    constructing the :class:`TreeNetwork` first.

    Loads arrive from requests, so this stays a chained blake2b over the
    sorted entries (full collision resistance); services avoid repeated
    recomputes by *memoizing* the value (tenant records carry theirs from
    admission), not by maintaining it incrementally.
    """
    return _digest(
        sorted(f"{node!r}={int(value)}" for node, value in loads.items() if int(value) != 0)
    )


def fingerprint_nodes(nodes: Iterable[NodeId]) -> str:
    """Order-independent digest of a set of node identifiers (e.g. Λ).

    Defined as the :class:`IncrementalDigest` combine over the node
    reprs, so a digest maintained incrementally across set churn equals
    this full recompute entry for entry.  The input is treated as a
    *set*: duplicates are collapsed before combining (a multiset combine
    would otherwise distinguish multiplicities).
    """
    return IncrementalDigest({repr(node) for node in nodes}).hexdigest()


#: Sentinel distinguishing "keep the current Λ" from an explicit ``None``
#: (which, as in the constructor, means "all switches available").
_KEEP_AVAILABLE: Any = object()


def _validate_rate(node: NodeId, rate: float) -> float:
    """Return ``rate`` as a float after checking it is finite and positive."""
    try:
        value = float(rate)
    except (TypeError, ValueError) as exc:
        raise InvalidRateError(f"rate of link above {node!r} is not a number: {rate!r}") from exc
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidRateError(
            f"rate of link above {node!r} must be a positive finite number, got {rate!r}"
        )
    return value


#: The kernels count each link's messages in int64.  A link carries at most
#: the whole load plus one message per aggregating switch, so a load
#: function whose total plus the switch count stays within this bound
#: cannot overflow a count (:func:`check_load_total`).
MAX_MESSAGE_COUNT = 2**63 - 1


def check_load_total(
    loads: Iterable[int],
    num_switches: int,
    error: type[Exception] = InvalidLoadError,
) -> None:
    """Raise ``error`` unless the total of ``loads`` plus ``num_switches``
    fits :data:`MAX_MESSAGE_COUNT`."""
    total = sum(loads)
    if total + num_switches > MAX_MESSAGE_COUNT:
        raise error(
            f"total load {total} plus {num_switches} switches exceeds 2**63 - 1, "
            "the largest per-link message count the kernels can hold"
        )


def _validate_load(node: NodeId, load: Any) -> int:
    """Return ``load`` as an int after checking it is a non-negative integer."""
    try:
        value = int(load)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidLoadError(f"load of switch {node!r} is not an integer: {load!r}") from exc
    if value != load:
        raise InvalidLoadError(f"load of switch {node!r} must be integral, got {load!r}")
    if value < 0:
        raise InvalidLoadError(f"load of switch {node!r} must be non-negative, got {load!r}")
    return value


class TreeNetwork:
    """A weighted tree of switches rooted (logically) at a destination server.

    Parameters
    ----------
    parents:
        Mapping from every switch to its parent.  Exactly one switch (the
        *root* ``r``) must have the destination as its parent.  The
        destination itself must not appear as a key.
    rates:
        Mapping from a switch ``s`` to the rate ``w((s, p(s)))`` of the link
        connecting it to its parent, in messages per second.  Switches
        missing from the mapping default to rate ``1.0``.
    loads:
        Mapping from a switch to the number of servers attached to it
        (the network load ``L``).  Missing switches default to ``0``.
    available:
        The set Λ of switches that may be turned into aggregation (blue)
        switches.  ``None`` (the default) means every switch is available.
    destination:
        Identifier of the destination server ``d``.

    Raises
    ------
    TreeStructureError
        If the parent pointers do not describe a tree whose edges all lead
        to the destination.
    InvalidRateError, InvalidLoadError, AvailabilityError
        If rates, loads, or Λ are malformed.
    """

    __slots__ = (
        "_destination",
        "_root",
        "_parents",
        "_children",
        "_rates",
        "_rho",
        "_loads",
        "_available",
        "_depth",
        "_postorder",
        "_cum_rho",
        "_height",
        "_fingerprints",
        "_layout",
        "_avail_mask",
    )

    def __init__(
        self,
        parents: Mapping[NodeId, NodeId],
        rates: Mapping[NodeId, float] | None = None,
        loads: Mapping[NodeId, int] | None = None,
        available: Iterable[NodeId] | None = None,
        destination: NodeId = DEFAULT_DESTINATION,
    ) -> None:
        if destination in parents:
            raise TreeStructureError("the destination must not have a parent")
        if not parents:
            raise TreeStructureError("a tree network needs at least one switch")

        self._destination: NodeId = destination
        self._parents: dict[NodeId, NodeId] = dict(parents)

        roots = [s for s, p in self._parents.items() if p == destination]
        if len(roots) != 1:
            raise TreeStructureError(
                f"exactly one switch must have the destination as parent, found {len(roots)}"
            )
        self._root: NodeId = roots[0]

        self._children: dict[NodeId, list[NodeId]] = {s: [] for s in self._parents}
        self._children[destination] = []
        for switch, parent in self._parents.items():
            if switch == parent:
                raise TreeStructureError(f"switch {switch!r} is its own parent")
            if parent != destination and parent not in self._parents:
                raise TreeStructureError(
                    f"switch {switch!r} points at unknown parent {parent!r}"
                )
            self._children[parent].append(switch)

        rates = rates or {}
        for key in rates:
            if key not in self._parents:
                raise InvalidRateError(f"rate given for unknown switch {key!r}")

        self._rates: dict[NodeId, float] = {
            s: _validate_rate(s, rates.get(s, 1.0)) for s in self._parents
        }
        self._rho: dict[NodeId, float] = {s: 1.0 / r for s, r in self._rates.items()}
        self._loads: dict[NodeId, int] = self._validated_loads(loads or {})
        self._available: frozenset[NodeId] = self._validated_available(available)

        self._depth: dict[NodeId, int] = {}
        self._cum_rho: dict[NodeId, float] = {destination: 0.0}
        self._postorder: tuple[NodeId, ...] = self._compute_order()
        self._height: int = max(self._depth.values(), default=0)
        self._fingerprints: dict[str, str] = {}
        # One-element box for the memoized flat layout (see flat_layout);
        # with_loads / with_available copies share the box itself.
        self._layout: list[FlatLayout | None] = [None]
        # Λ as a read-only flat-order mask, built on first use (see flat_vectors).
        self._avail_mask: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _compute_order(self) -> tuple[NodeId, ...]:
        """Compute depths, cumulative path costs, and a post-order traversal.

        Uses an explicit stack so arbitrarily deep trees (e.g. path graphs
        with thousands of switches) do not hit the interpreter recursion
        limit.  Also detects cycles / disconnected switches.
        """
        depth = self._depth
        cum_rho = self._cum_rho
        depth[self._destination] = 0

        order: list[NodeId] = []
        stack: list[tuple[NodeId, bool]] = [(self._root, False)]
        visited: set[NodeId] = set()
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in visited:
                raise TreeStructureError(f"cycle detected at switch {node!r}")
            visited.add(node)
            parent = self._parents[node]
            depth[node] = depth[parent] + 1
            cum_rho[node] = cum_rho[parent] + self._rho[node]
            stack.append((node, True))
            for child in self._children[node]:
                stack.append((child, False))

        if len(visited) != len(self._parents):
            missing = set(self._parents) - visited
            raise TreeStructureError(
                f"switches unreachable from the root: {sorted(map(repr, missing))}"
            )
        return tuple(order)

    def _validated_loads(self, loads: Mapping[NodeId, int]) -> dict[NodeId, int]:
        """A fresh load function over every switch, validated against this tree.

        The result is keyed in the order of ``_parents`` (which
        :meth:`flat_vectors` relies on).  Only the given entries are
        validated; an exact non-negative ``int`` is taken as it is and every
        other value goes through :func:`_validate_load`.  The total must
        fit the kernels' message counts (:func:`check_load_total`).
        """
        if not self._parents.keys() >= loads.keys():
            unknown = next(key for key in loads if key not in self._parents)
            raise InvalidLoadError(f"load given for unknown switch {unknown!r}")
        validated = dict.fromkeys(self._parents, 0)
        for switch, load in loads.items():
            if type(load) is int and load >= 0:
                validated[switch] = load
            else:
                validated[switch] = _validate_load(switch, load)
        check_load_total(validated.values(), len(validated))
        return validated

    def _check_switches(self, nodes: frozenset[NodeId]) -> None:
        """Raise :class:`AvailabilityError` unless every node is a switch."""
        if not self._parents.keys() >= nodes:
            unknown = nodes - self._parents.keys()
            raise AvailabilityError(
                f"availability set references unknown switches: {sorted(map(repr, unknown))}"
            )

    def _validated_available(self, available: Iterable[NodeId] | None) -> frozenset[NodeId]:
        """Λ as a frozenset of this tree's switches (``None``: all of them)."""
        if available is None:
            return frozenset(self._parents)
        available_set = frozenset(available)
        self._check_switches(available_set)
        return available_set

    @classmethod
    def from_networkx(
        cls,
        graph: nx.Graph | nx.DiGraph,
        root: NodeId,
        loads: Mapping[NodeId, int] | None = None,
        rates: Mapping[NodeId, float] | None = None,
        available: Iterable[NodeId] | None = None,
        destination: NodeId = DEFAULT_DESTINATION,
        rate_attribute: str = "rate",
        load_attribute: str = "load",
    ) -> "TreeNetwork":
        """Build a :class:`TreeNetwork` from an (undirected) networkx tree.

        The graph must be a tree over the switches only; a fresh destination
        node is attached above ``root``.  Edge rates are read from the
        ``rate_attribute`` edge attribute unless overridden by ``rates``
        (keyed by the child switch); node loads are read from the
        ``load_attribute`` node attribute unless overridden by ``loads``.
        The rate of the new ``(root, destination)`` link defaults to ``1.0``
        and can be set via ``rates[root]``.
        """
        undirected = graph.to_undirected() if graph.is_directed() else graph
        if root not in undirected:
            raise TreeStructureError(f"root {root!r} is not a node of the graph")
        if destination in undirected:
            raise TreeStructureError(
                f"destination id {destination!r} already exists in the graph; choose another"
            )
        if not nx.is_tree(undirected):
            raise TreeStructureError("the supplied graph is not a tree")

        parents: dict[NodeId, NodeId] = {root: destination}
        for parent, child in nx.bfs_edges(undirected, root):
            parents[child] = parent

        effective_rates: dict[NodeId, float] = {}
        for child, parent in parents.items():
            if parent == destination:
                effective_rates[child] = 1.0
                continue
            data = undirected.get_edge_data(child, parent, default={})
            effective_rates[child] = data.get(rate_attribute, 1.0)
        if rates:
            effective_rates.update(rates)

        effective_loads: dict[NodeId, int] = {
            node: undirected.nodes[node].get(load_attribute, 0) for node in parents
        }
        if loads:
            effective_loads.update(loads)

        return cls(
            parents,
            rates=effective_rates,
            loads=effective_loads,
            available=available,
            destination=destination,
        )

    def to_networkx(self) -> nx.DiGraph:
        """Export the network (including the destination) as a directed graph.

        Edges point towards the destination and carry ``rate`` and ``rho``
        attributes; switch nodes carry ``load`` and ``available`` attributes.
        """
        graph = nx.DiGraph()
        graph.add_node(self._destination, kind="destination")
        for switch in self._parents:
            graph.add_node(
                switch,
                kind="switch",
                load=self._loads[switch],
                available=switch in self._available,
            )
        for switch, parent in self._parents.items():
            graph.add_edge(switch, parent, rate=self._rates[switch], rho=self._rho[switch])
        return graph

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def destination(self) -> NodeId:
        """The destination server ``d``."""
        return self._destination

    @property
    def root(self) -> NodeId:
        """The root switch ``r`` (the unique child of the destination)."""
        return self._root

    @property
    def switches(self) -> tuple[NodeId, ...]:
        """All switches in post-order (children before parents, root last)."""
        return self._postorder

    @property
    def num_switches(self) -> int:
        """Number of switches ``n`` (the destination is not counted)."""
        return len(self._parents)

    @property
    def available(self) -> frozenset[NodeId]:
        """The availability set Λ of switches allowed to aggregate."""
        return self._available

    @property
    def loads(self) -> dict[NodeId, int]:
        """A copy of the load function ``L``."""
        return dict(self._loads)

    @property
    def rates(self) -> dict[NodeId, float]:
        """A copy of the rate function, keyed by the child switch of each link."""
        return dict(self._rates)

    @property
    def height(self) -> int:
        """Height of the tree: the largest depth ``D(v)`` over all switches."""
        return self._height

    @property
    def total_load(self) -> int:
        """Total number of servers attached to the network."""
        return sum(self._loads.values())

    def __contains__(self, node: NodeId) -> bool:
        return node in self._parents or node == self._destination

    def __len__(self) -> int:
        return len(self._parents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeNetwork(n={self.num_switches}, height={self.height}, "
            f"total_load={self.total_load})"
        )

    def is_switch(self, node: NodeId) -> bool:
        """Return ``True`` when ``node`` is a switch of the network."""
        return node in self._parents

    def parent(self, node: NodeId) -> NodeId:
        """Return the parent ``p(node)`` of a switch."""
        try:
            return self._parents[node]
        except KeyError as exc:
            raise TreeStructureError(f"{node!r} is not a switch of this network") from exc

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        """Return the children of ``node`` (which may be the destination)."""
        try:
            return tuple(self._children[node])
        except KeyError as exc:
            raise TreeStructureError(f"{node!r} is not a node of this network") from exc

    def num_children(self, node: NodeId) -> int:
        """Return ``C(node)``, the number of children of ``node``."""
        return len(self.children(node))

    def is_leaf(self, node: NodeId) -> bool:
        """Return ``True`` when the switch has no children."""
        return self.is_switch(node) and not self._children[node]

    def leaves(self) -> tuple[NodeId, ...]:
        """Return all leaf switches in post-order."""
        return tuple(s for s in self._postorder if not self._children[s])

    def load(self, node: NodeId) -> int:
        """Return the load ``L(node)`` of a switch."""
        try:
            return self._loads[node]
        except KeyError as exc:
            raise InvalidLoadError(f"{node!r} is not a switch of this network") from exc

    def rate(self, node: NodeId) -> float:
        """Return the rate of the link between ``node`` and its parent."""
        try:
            return self._rates[node]
        except KeyError as exc:
            raise InvalidRateError(f"{node!r} is not a switch of this network") from exc

    def rho(self, node: NodeId) -> float:
        """Return ``rho((node, p(node))) = 1 / rate``, the per-message link time."""
        try:
            return self._rho[node]
        except KeyError as exc:
            raise InvalidRateError(f"{node!r} is not a switch of this network") from exc

    def depth(self, node: NodeId) -> int:
        """Return ``D(node)``: the number of edges between ``node`` and ``d``."""
        try:
            return self._depth[node]
        except KeyError as exc:
            raise TreeStructureError(f"{node!r} is not a node of this network") from exc

    # ------------------------------------------------------------------ #
    # fingerprints
    # ------------------------------------------------------------------ #

    def structure_fingerprint(self) -> str:
        """Digest of the topology and rates (parents, destination, ``w``).

        Two networks with the same structure fingerprint describe the same
        weighted tree; they may still differ in loads and availability.
        Fingerprints are memoized per instance (the network is immutable).
        """
        cached = self._fingerprints.get("structure")
        if cached is None:
            cached = _digest(
                [repr(self._destination)]
                + sorted(
                    f"{s!r}->{p!r}@{self._rates[s]!r}" for s, p in self._parents.items()
                )
            )
            self._fingerprints["structure"] = cached
        return cached

    def loads_fingerprint(self) -> str:
        """Digest of the load function ``L`` (see :func:`fingerprint_loads`)."""
        cached = self._fingerprints.get("loads")
        if cached is None:
            cached = fingerprint_loads(self._loads)
            self._fingerprints["loads"] = cached
        return cached

    def availability_fingerprint(self) -> str:
        """Digest of the availability set Λ (see :func:`fingerprint_nodes`)."""
        cached = self._fingerprints.get("available")
        if cached is None:
            cached = fingerprint_nodes(self._available)
            self._fingerprints["available"] = cached
        return cached

    def fingerprint(self) -> str:
        """Digest of the whole φ-BIC instance: structure, loads, and Λ.

        Equal fingerprints mean equal problem instances, so any solver
        output (gather tables, placements, costs) computed for one network
        is valid verbatim for the other — the contract the gather-table
        cache of :mod:`repro.service` is built on.
        """
        cached = self._fingerprints.get("full")
        if cached is None:
            cached = _digest(
                [
                    self.structure_fingerprint(),
                    self.loads_fingerprint(),
                    self.availability_fingerprint(),
                ]
            )
            self._fingerprints["full"] = cached
        return cached

    def flat_layout(self) -> "FlatLayout":
        """The :class:`~repro.core.flat.FlatLayout` of this weighted tree.

        Built once by :func:`repro.core.flat.build_metadata` and memoized in
        a slot that :meth:`with_loads` / :meth:`with_available` copies share
        (the layout depends on the topology and rates only); constructors
        and :meth:`with_rates` start a fresh one.  Two threads racing on the
        first call both build equal layouts and one of them is kept.
        """
        layout = self._layout[0]
        if layout is None:
            # Imported here: repro.core.flat builds on this module.
            from repro.core.flat import build_metadata

            layout = self._layout[0] = build_metadata(self)
        return layout

    def flat_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The loads (int64) and Λ membership (bool) in :meth:`flat_layout` order.

        Both arrays are read-only.  The load vector is one scatter of the
        load function through the layout's ``switch_position`` (every load
        function is keyed in the order of the switch mapping the layout
        was built from, which :meth:`with_loads` / :meth:`with_available`
        copies share).  The Λ mask is built once per network and shared
        by the copies that keep this network's Λ.
        """
        layout = self.flat_layout()
        n = len(self._parents)
        load = np.empty(n, dtype=np.int64)
        load[layout.switch_position] = np.fromiter(
            self._loads.values(), dtype=np.int64, count=n
        )
        load.setflags(write=False)
        avail = self._avail_mask
        if avail is None:
            avail = np.fromiter(
                map(self._available.__contains__, layout.order), dtype=bool, count=n
            )
            avail.setflags(write=False)
            self._avail_mask = avail
        return load, avail

    # ------------------------------------------------------------------ #
    # path and subtree queries
    # ------------------------------------------------------------------ #

    def ancestor_at(self, node: NodeId, distance: int) -> NodeId:
        """Return ``A^distance_node``, the ancestor ``distance`` edges above ``node``.

        ``distance = 0`` returns ``node`` itself; ``distance = D(node)``
        returns the destination.
        """
        if distance < 0 or distance > self.depth(node):
            raise TreeStructureError(
                f"node {node!r} has no ancestor at distance {distance} (depth {self.depth(node)})"
            )
        current = node
        for _ in range(distance):
            current = self._parents[current]
        return current

    def ancestors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Return the ancestors of ``node`` from its parent up to the destination."""
        result: list[NodeId] = []
        current = node
        while current != self._destination:
            current = self._parents[current]
            result.append(current)
        return tuple(result)

    def path_rho(self, node: NodeId, distance: int) -> float:
        """Return ``rho(node, A^distance_node)``: total per-message time of the
        ``distance`` links on the path from ``node`` towards the destination.
        """
        ancestor = self.ancestor_at(node, distance)
        return self._cum_rho[node] - self._cum_rho[ancestor]

    def path_rho_prefix(self, node: NodeId) -> list[float]:
        """Return ``[path_rho(node, l) for l in 0..D(node)]`` as one list.

        The SOAR dynamic program needs all of these values for every node;
        returning them in one call avoids repeated ancestor walks.
        """
        prefix: list[float] = [0.0]
        current = node
        total = 0.0
        while current != self._destination:
            total += self._rho[current]
            prefix.append(total)
            current = self._parents[current]
        return prefix

    def rho_to_destination(self, node: NodeId) -> float:
        """Return the total per-message time from ``node`` all the way to ``d``."""
        if node == self._destination:
            return 0.0
        try:
            return self._cum_rho[node]
        except KeyError as exc:
            raise TreeStructureError(f"{node!r} is not a node of this network") from exc

    def subtree(self, node: NodeId) -> tuple[NodeId, ...]:
        """Return all switches in the subtree rooted at ``node`` (including it)."""
        if not self.is_switch(node):
            raise TreeStructureError(f"{node!r} is not a switch of this network")
        result: list[NodeId] = []
        stack = [node]
        while stack:
            current = stack.pop()
            result.append(current)
            stack.extend(self._children[current])
        return tuple(result)

    def subtree_load(self, node: NodeId) -> int:
        """Return the total load of the subtree rooted at ``node``."""
        return sum(self._loads[s] for s in self.subtree(node))

    def levels(self) -> list[list[NodeId]]:
        """Return switches grouped by depth: ``levels()[0]`` is ``[root]``.

        Level index ``i`` holds the switches at depth ``i + 1`` from the
        destination (i.e. distance ``i`` from the root switch).
        """
        grouped: dict[int, list[NodeId]] = {}
        for switch in self._postorder:
            grouped.setdefault(self._depth[switch] - 1, []).append(switch)
        return [grouped[i] for i in sorted(grouped)]

    # ------------------------------------------------------------------ #
    # derived copies
    # ------------------------------------------------------------------ #

    def with_loads(
        self,
        loads: Mapping[NodeId, int],
        available: Iterable[NodeId] | None = _KEEP_AVAILABLE,
    ) -> "TreeNetwork":
        """Return a copy of the network with a different load function.

        Switches absent from ``loads`` get load 0 (the mapping fully replaces
        the previous loads; use ``{**tree.loads, ...}`` to patch instead).
        ``available`` optionally replaces Λ in the same call (``None`` means
        all switches, as in the constructor); omitting it keeps the current
        Λ.

        Like :meth:`with_available`, the copy structurally shares every
        load-independent attribute with ``self`` and validates only the
        loads (and the new Λ, when one is given), exactly as the
        constructor would; the caller's mapping is copied, never kept.
        The structure-fingerprint memo and the flat layout ride along, and
        so does the flat Λ mask when Λ is kept.
        """
        if available is _KEEP_AVAILABLE:
            available_set = self._available
        else:
            available_set = self._validated_available(available)
        return self._derive(self._validated_loads(loads or {}), available_set)

    def with_available(self, available: Iterable[NodeId] | None) -> "TreeNetwork":
        """Return a copy of the network with a different availability set Λ.

        The copy *structurally shares* every Λ-independent attribute with
        ``self`` — parents, children, rates, loads, depths, cumulative
        path costs, the post-order, the flat layout — instead of re-running
        the O(n) constructor: none of them can change when only Λ does, and
        all of them are treated as immutable after construction.  Only the
        new Λ itself is validated (:meth:`with_flipped` validates just a
        delta).
        """
        return self._derive(self._loads, self._validated_available(available))

    def with_flipped(self, switches: Iterable[NodeId]) -> "TreeNetwork":
        """Return a copy of the network with the Λ membership of ``switches`` toggled.

        The same network as ``with_available(available ^ set(switches))``,
        for the price of the flips: only the flipped switches are
        validated and the Λ fingerprint is patched by them alone.  This is
        the copy a delta repair (:meth:`GatherTable.repair
        <repro.core.solver.GatherTable.repair>`) builds.

        Raises
        ------
        AvailabilityError
            If one of ``switches`` is not a switch of the network.
        """
        flips = frozenset(switches)
        self._check_switches(flips)
        return self._derive(self._loads, self._available ^ flips, flips)

    def _derive(
        self,
        loads: dict[NodeId, int],
        available: frozenset[NodeId],
        flips: frozenset[NodeId] | None = None,
    ) -> "TreeNetwork":
        """A copy sharing the structure, with validated ``loads`` and Λ.

        ``flips``, when the caller holds it, is the symmetric difference
        of this tree's Λ and ``available``.

        Fingerprint memos ride along: the structure digest transfers
        verbatim, the loads digest when ``loads`` is this tree's own
        function, and a new Λ's fingerprint is *patched by the delta* —
        the :class:`IncrementalDigest` is resumed from this tree's Λ
        fingerprint and the flipped switches are folded in/out,
        O(|delta|) instead of O(|Λ|).  A source that has no Λ fingerprint
        memoized computes it first; the sources that derive many copies
        (a service's fleet network, an experiment's base tree) are
        long-lived, so they pay that once.  :func:`fingerprint_nodes`
        remains the ground truth the patched digest is equivalent to
        (the combine is order-independent and every ``add`` has an exact
        inverse), which the test-suite pins against the full recompute.
        """
        clone = object.__new__(TreeNetwork)
        clone._destination = self._destination
        clone._parents = self._parents
        clone._root = self._root
        clone._children = self._children
        clone._rates = self._rates
        clone._rho = self._rho
        clone._loads = loads
        clone._available = available
        clone._depth = self._depth
        clone._cum_rho = self._cum_rho
        clone._postorder = self._postorder
        clone._height = self._height
        clone._layout = self._layout
        clone._avail_mask = self._avail_mask if available is self._available else None
        kept = ["structure"]
        if loads is self._loads:
            kept.append("loads")
        if available is self._available:
            kept.append("available")
        clone._fingerprints = {
            key: self._fingerprints[key] for key in kept if key in self._fingerprints
        }
        if available is not self._available:
            digest = IncrementalDigest.from_hexdigest(self.availability_fingerprint())
            for node in self._available ^ available if flips is None else flips:
                if node in available:
                    digest.add(repr(node))
                else:
                    digest.remove(repr(node))
            clone._fingerprints["available"] = digest.hexdigest()
        return clone

    def with_rates(self, rates: Mapping[NodeId, float]) -> "TreeNetwork":
        """Return a copy of the network with different link rates.

        Switches absent from ``rates`` keep their current rate.
        """
        merged = dict(self._rates)
        merged.update(rates)
        return TreeNetwork(
            self._parents,
            rates=merged,
            loads=self._loads,
            available=self._available,
            destination=self._destination,
        )

    # ------------------------------------------------------------------ #
    # convenience constructors for tests and examples
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[tuple[NodeId, NodeId]],
        rates: Mapping[NodeId, float] | None = None,
        loads: Mapping[NodeId, int] | None = None,
        available: Iterable[NodeId] | None = None,
        destination: NodeId = DEFAULT_DESTINATION,
    ) -> "TreeNetwork":
        """Build a network from ``(child, parent)`` edge pairs.

        Exactly one edge must have the destination as its parent endpoint.
        """
        parents = {child: parent for child, parent in edges}
        if len(parents) != len(edges):
            raise TreeStructureError("duplicate child in edge list")
        return cls(
            parents,
            rates=rates,
            loads=loads,
            available=available,
            destination=destination,
        )
