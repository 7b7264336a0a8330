"""The staged solver API: :class:`Solver`, :class:`GatherTable`, :class:`Placement`.

SOAR is a two-phase algorithm — an expensive gather dynamic program followed
by a cheap colouring trace — and this module makes that structure the public
API instead of hiding it behind keyword-threaded free functions:

* :class:`Solver` binds the kernel :class:`~repro.core.engine.Backend`
  and the budget semantics **once**; every artifact it produces records
  them.
* :class:`GatherTable` is the immutable product of the gather phase.  A
  table gathered at budget ``k`` carries every column ``0 .. k``, so one
  table answers *every* smaller budget through :meth:`GatherTable.cost`,
  :meth:`GatherTable.place`, and :meth:`GatherTable.sweep` without touching
  the gather again — the service cache, budget sweeps, and figure harnesses
  all reuse tables through exactly this surface.
* :class:`Placement` is the product of the colour phase: the blue set, its
  recomputed utilization, and the DP optimum it was traced from.

Example
-------
>>> from repro.topology import complete_binary_tree
>>> from repro.core.solver import Solver
>>> solver = Solver()
>>> tree = complete_binary_tree(4, leaf_loads=[2, 6, 5, 4])
>>> table = solver.gather(tree, max_budget=4)
>>> table.cost(2)
20.0
>>> placement = table.place(2)
>>> sorted(placement.blue_nodes)
['s1_1', 's2_1']
>>> [table.cost(k) for k in range(1, 5)]
[35.0, 20.0, 15.0, 11.0]

Reuse safety
------------
A :class:`GatherTable` knows the budget semantics it was built under and
refuses to be passed off as the other one: :meth:`GatherTable.require`
raises :class:`~repro.exceptions.SemanticsMismatchError` on a mismatch,
closing the historical hole where ``solve(..., gathered=...)`` silently
traced at-most-k answers out of exactly-k tables (or vice versa).  The
backends build bit-identical tables, so a table serves a solver on
either.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.engine import (
    DEFAULT_BACKEND,
    Backend,
    gather as run_gather,
    repair as run_repair,
)
from repro.core.flat import FlatCostModel, cost_model_for
from repro.core.gather import GatherResult, normalize_budget
from repro.core.tree import NodeId, TreeNetwork
from repro.exceptions import InvalidBudgetError, SemanticsMismatchError

# perfbench/tracer.py times the colour and cost phases by wrapping these two
# names of this module.  A backend sweep calls neither, so those spans read
# 0; stage timers inside the library are to replace the wrapping.
from repro.core.color import soar_color_batched as trace_color  # noqa: F401
from repro.core.cost import evaluate_cost  # noqa: F401

__all__ = ["GatherTable", "Placement", "Solver"]


@dataclass(frozen=True)
class Placement:
    """Product of the colour phase: an optimal blue set and its cost.

    Attributes
    ----------
    blue_nodes:
        The selected aggregation switches ``U`` (``|U| <= budget``).
    cost:
        The utilization complexity ``phi(T, L, U)``, recomputed from the
        Reduce message counts (not just read from the DP table) so it is
        verifiable against the cost module.
    predicted_cost:
        The optimum announced by the gather table ``X_r(1, k)``; equal to
        ``cost`` whenever the tables are consistent, which the test-suite
        asserts on every solve.
    budget:
        The effective budget ``k`` this placement was traced for.
    table:
        The :class:`GatherTable` the placement was traced from, kept for
        follow-up sweeps and diagnostics.
    """

    blue_nodes: frozenset[NodeId]
    cost: float
    predicted_cost: float
    budget: int
    table: "GatherTable"

    @property
    def num_blue(self) -> int:
        """Number of aggregation switches actually used."""
        return len(self.blue_nodes)


@dataclass(frozen=True)
class GatherTable:
    """Immutable product of the gather phase, with provenance.

    Produced by :meth:`Solver.gather`; reusable for every budget up to
    :attr:`budget`.  The artifact owns the instance it was gathered for
    (``tree``), so placing from a table needs no external state — which is
    what lets the service answer warm cache hits without reconstructing
    the workload network.

    Attributes
    ----------
    result:
        The raw per-node DP tables (:class:`~repro.core.gather.GatherResult`).
    tree:
        The φ-BIC instance the tables were gathered for (topology, rates,
        loads, Λ).
    backend:
        The :class:`~repro.core.engine.Backend` that gathered the tables
        and that :meth:`place`, :meth:`sweep` and :meth:`repair` run on
        (bound from the producing :class:`Solver`).  On the compiled
        backend a whole sweep is one C colour call plus one C cost call.
    exact_k:
        Budget semantics the tables encode.
    repaired_from:
        Repair lineage: the fingerprint of the table this one was
        delta-repaired out of (:meth:`repair`), ``None`` for a cold
        gather.  Purely provenance — repaired tables are bit-identical to
        cold ones.
    repair_generation:
        Number of repairs between this table and its cold-gathered
        ancestor (0 for a cold gather).
    """

    result: GatherResult = field(repr=False)
    tree: TreeNetwork = field(repr=False)
    backend: Backend
    exact_k: bool
    repaired_from: str | None = field(default=None, repr=False)
    repair_generation: int = 0

    @property
    def fingerprint(self) -> str:
        """Digest of the full instance (:meth:`TreeNetwork.fingerprint`).

        Equal fingerprints mean the table is valid verbatim for the other
        instance.  Computed on first read and memoized on :attr:`tree`, so
        a table nobody asks about never digests its loads.
        """
        return self.tree.fingerprint()

    @property
    def budget(self) -> int:
        """Largest budget the tables can answer (requested ``k`` clamped to ``|Λ|``)."""
        return self.result.budget

    @property
    def requested_budget(self) -> int:
        """The budget :meth:`Solver.gather` was asked for."""
        return self.result.requested_budget

    @property
    def root(self) -> NodeId:
        """Root switch of the instance the tables belong to."""
        return self.result.root

    def require(self, exact_k: bool | None = None) -> None:
        """Assert the table may be reused under the given budget semantics.

        Raises
        ------
        SemanticsMismatchError
            If ``exact_k`` is given and differs from the table's semantics.
        """
        if exact_k is not None and exact_k != self.exact_k:
            raise SemanticsMismatchError(
                f"gather table encodes exact_k={self.exact_k}; "
                f"reusing it with exact_k={exact_k} would trace the wrong "
                "dynamic program"
            )

    def effective_budget(self, budget: int | None = None) -> int:
        """Clamp ``budget`` to what the tables can answer (default: all of it)."""
        if budget is None:
            return self.budget
        if budget < 0:
            raise InvalidBudgetError(f"budget must be non-negative, got {budget}")
        return min(int(budget), self.budget)

    def cost(self, budget: int | None = None) -> float:
        """Optimal utilization ``X_r(1, budget)`` — a pure table lookup."""
        return self.result.cost_for_budget(self.effective_budget(budget))

    def cost_model(self) -> FlatCostModel:
        """The artifact's :class:`~repro.core.flat.FlatCostModel`, built lazily.

        Derived zero-copy from the table's
        :class:`~repro.core.flat.FlatTables` and cached on the underlying
        :class:`~repro.core.gather.GatherResult`, so every placement
        traced from the table shares it.
        """
        if self.result.cost_model is None:
            self.result.cost_model = cost_model_for(self.tree, self.result.flat)
        return self.result.cost_model

    def place(self, budget: int | None = None) -> Placement:
        """Trace an optimal placement for ``budget`` out of the tables.

        This is the whole cost of answering a query from a cached table:
        the colour trace plus the verification recompute of the achieved
        cost — a sweep of one budget (see :meth:`sweep`).
        """
        return self._trace([self.effective_budget(budget)])[0]

    def sweep(self, budgets: Iterable[int]) -> dict[int, Placement]:
        """Trace one placement per budget — the Figure 3/6 sweep surface.

        Budgets above :attr:`budget` are clamped (they share the widest
        column); duplicates after clamping are traced once and shared.
        Every distinct budget is traced by one ``backend.trace`` call and
        costed by one ``backend.costs`` call.
        """
        wanted = sorted({int(b) for b in budgets})
        effective = {budget: self.effective_budget(budget) for budget in wanted}
        distinct = sorted(set(effective.values()))
        traced = dict(zip(distinct, self._trace(distinct)))
        return {budget: traced[effective[budget]] for budget in wanted}

    def _trace(self, budgets: list[int]) -> list[Placement]:
        """Placements for effective ``budgets``, colour then cost recompute.

        The cost is recomputed from the traced blue set, never copied from
        the tables, so ``cost == predicted_cost`` stays a real check.
        """
        flat, masks = self.backend.trace(self.tree, self.result, budgets)
        costs = self.backend.costs(self.tree, masks, self.cost_model()).tolist()
        # One nonzero over the (B, n) masks: row-major, so each budget's
        # blue positions are one run of ``positions``.
        positions = np.nonzero(masks)[1].tolist()
        nodes = list(map(flat.order.__getitem__, positions))
        ends = np.count_nonzero(masks, axis=1).cumsum().tolist()
        blues = [frozenset(nodes[start:end]) for start, end in zip([0, *ends], ends)]
        return [
            Placement(
                blue_nodes=blue,
                cost=cost,
                predicted_cost=self.result.cost_for_budget(budget),
                budget=budget,
                table=self,
            )
            for budget, blue, cost in zip(budgets, blues, costs)
        ]

    def repair(self, delta: Iterable[NodeId]) -> "GatherTable":
        """Delta-repair this table for an availability change.

        ``delta`` is the set of switches whose Λ-membership flips (added
        or removed — the symmetric difference between the table's Λ and
        the target Λ).  Returns a *new* table for the flipped availability
        whose DP tables, costs, and traced placements are bit-identical to
        a cold ``Solver.gather`` on the new network, computed in
        O(depth · k² · |delta|) instead of O(n · k²): only the columns of
        the delta switches and their ancestors are re-convolved
        (:func:`repro.core.engine.repair`).

        The repaired artifact records its lineage (:attr:`repaired_from`,
        :attr:`repair_generation`) and can itself be repaired again.

        Raises
        ------
        AvailabilityError
            When a delta entry is not a switch of the network.
        RepairError
            When the repair would be unsound: the delta changes the
            effective budget (|Λ| crossing the requested ``k`` changes the
            tensor width).  Callers fall back to a cold gather.
        """
        flips = frozenset(delta)
        # Read before deriving: the copy inherits the loads digest this
        # memoizes, so a lineage of repairs digests its loads once.
        source = self.fingerprint
        new_tree = self.tree.with_flipped(flips)
        result = run_repair(self.result, new_tree, self.backend, flips)
        return GatherTable(
            result=result,
            tree=new_tree,
            backend=self.backend,
            exact_k=self.exact_k,
            repaired_from=source,
            repair_generation=self.repair_generation + 1,
        )


@dataclass(frozen=True)
class Solver:
    """Facade binding the kernel backend and the budget semantics once.

    Parameters
    ----------
    backend:
        The :class:`~repro.core.engine.Backend` every gather, trace, cost
        recompute and repair runs on: :data:`~repro.core.engine.DEFAULT_BACKEND`
        (compiled when the C kernels built) or
        :data:`~repro.core.engine.NUMPY_BACKEND`.  The backends are
        bit-identical; on the compiled one a sweep or a placement is one C
        colour call plus one C cost call, whatever the number of budgets.
    exact_k:
        Budget semantics; see :mod:`repro.core.gather`.  The default
        (at-most-k) is never worse than the paper-literal exactly-k mode.

    The solver is stateless and immutable — share one per configuration.
    """

    backend: Backend = DEFAULT_BACKEND
    exact_k: bool = False

    def with_semantics(self, exact_k: bool) -> "Solver":
        """A solver identical to this one except for the budget semantics."""
        return replace(self, exact_k=exact_k)

    # ------------------------------------------------------------------ #
    # the staged surface
    # ------------------------------------------------------------------ #

    def gather(self, tree: TreeNetwork, max_budget: int) -> GatherTable:
        """Run the gather phase and wrap the tables as a reusable artifact.

        When sweeping budgets ``1 .. k`` gather once at ``k``: the returned
        table answers every smaller budget through :meth:`GatherTable.cost`
        / :meth:`GatherTable.place` for the price of a colour trace.
        """
        return GatherTable(
            result=run_gather(tree, max_budget, self.exact_k, self.backend),
            tree=tree,
            backend=self.backend,
            exact_k=self.exact_k,
        )

    def solve(self, tree: TreeNetwork, budget: int) -> Placement:
        """Gather + place in one step (the cold-query path)."""
        normalize_budget(tree, budget)  # validate before paying the gather
        return self.gather(tree, budget).place()

    def sweep(self, tree: TreeNetwork, budgets: Iterable[int]) -> dict[int, Placement]:
        """Solve several budgets from a single gather at the largest one."""
        budget_list = sorted({int(b) for b in budgets})
        if not budget_list:
            return {}
        if budget_list[0] < 0:
            raise InvalidBudgetError("budgets must be non-negative")
        return self.gather(tree, budget_list[-1]).sweep(budget_list)

    def cost(self, tree: TreeNetwork, budget: int) -> float:
        """Optimal utilization for one budget (cold gather + trace)."""
        return self.solve(tree, budget).cost

    # ------------------------------------------------------------------ #
    # batch entry points
    # ------------------------------------------------------------------ #

    def solve_many(
        self,
        instances: Iterable[tuple[TreeNetwork, int]],
    ) -> list[Placement]:
        """Solve a batch of ``(tree, budget)`` instances, sharing gathers.

        Instances over the *same* tree object are grouped and gathered once
        at the largest budget of the group (the experiment- and
        service-scale fan-out path); distinct trees gather independently.
        """
        items: list[tuple[TreeNetwork, int]] = [
            (tree, int(budget)) for tree, budget in instances
        ]
        widest: dict[int, int] = {}
        for tree, budget in items:
            if budget < 0:
                raise InvalidBudgetError(f"budget must be non-negative, got {budget}")
            key = id(tree)
            widest[key] = max(widest.get(key, 0), budget)
        tables: dict[int, GatherTable] = {}
        placements: list[Placement] = []
        for tree, budget in items:
            key = id(tree)
            if key not in tables:
                tables[key] = self.gather(tree, widest[key])
            placements.append(tables[key].place(budget))
        return placements

    def sweep_many(
        self,
        instances: Iterable[tuple[TreeNetwork, Sequence[int]]],
    ) -> list[dict[int, Placement]]:
        """Run one budget sweep per instance, each from a single gather."""
        return [self.sweep(tree, budgets) for tree, budgets in instances]
