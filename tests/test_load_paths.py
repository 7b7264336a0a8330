"""How a request's loads and Λ enter the solver: validation, flat vectors, digests.

A cold placement request touches its load function several times on the
way to the gather kernel: the service copies and validates it, digests it
for the cache key, builds the workload network from it, and lays it out
in flat order next to the Λ mask.  These tests pin what each of those
steps accepts and produces, so a faster pass over the loads cannot change
an answer or an error, and they guard the number of load digests a cold
request pays.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import repro.core.tree as tree_module
import repro.service.api as api_module
from repro.core.cost import utilization_cost
from repro.core.flat import cost_model_for
from repro.core.solver import Solver
from repro.core.tree import TreeNetwork
from repro.core.tree import fingerprint_nodes
from repro.exceptions import AvailabilityError, InvalidLoadError, WorkloadError
from repro.service import PlacementService, SolveRequest, SweepRequest
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads

from backend_params import BACKEND_PARAMS

#: ``(load value, accepted int or the exception each surface raises)``:
#: the constructor and ``with_loads`` share one validation, the service
#: validates the request first and raises its own error type for every
#: value it refuses, including one ``int()`` rejects and a total that
#: would overflow the kernels' int64 message counts.
LOAD_CASES = [
    (True, 1, 1),
    (2.0, 2, 2),
    (np.int64(3), 3, 3),
    (2.5, InvalidLoadError, WorkloadError),
    (-1, InvalidLoadError, WorkloadError),
    ("x", InvalidLoadError, WorkloadError),
    (None, InvalidLoadError, WorkloadError),
    (3 + 0j, InvalidLoadError, WorkloadError),
    (float("inf"), InvalidLoadError, WorkloadError),
    (10**30, InvalidLoadError, WorkloadError),
]
LOAD_IDS = [
    "true", "float", "numpy-int", "fractional", "negative", "text", "none",
    "complex", "infinite", "beyond-int64",
]


def _parents(tree: TreeNetwork) -> dict:
    return {switch: tree.parent(switch) for switch in tree.switches}


class TestLoadValueAcceptance:
    """The constructor, ``with_loads`` and a service request agree on every
    load value: the same accepted ``int``, or the same error."""

    @pytest.fixture()
    def tree(self):
        return bt_network(8)

    @pytest.mark.parametrize("value, tree_outcome, service_outcome", LOAD_CASES, ids=LOAD_IDS)
    def test_tree_surfaces(self, tree, value, tree_outcome, service_outcome):
        leaf = tree.leaves()[0]
        builders = [
            lambda loads: TreeNetwork(_parents(tree), rates=tree.rates, loads=loads),
            lambda loads: tree.with_loads(loads),
            lambda loads: tree.with_loads(loads, available=tree.available),
        ]
        for build in builders:
            if isinstance(tree_outcome, type):
                with pytest.raises(tree_outcome):
                    build({leaf: value})
                continue
            accepted = build({leaf: value}).load(leaf)
            assert type(accepted) is int and accepted == tree_outcome
            # Every other switch defaults to 0, as an int.
            assert {type(load) for load in build({leaf: value}).loads.values()} == {int}

    @pytest.mark.parametrize("value, tree_outcome, service_outcome", LOAD_CASES, ids=LOAD_IDS)
    def test_service_request(self, tree, value, tree_outcome, service_outcome):
        leaf = tree.leaves()[0]
        other = tree.leaves()[-1]
        service = PlacementService(tree, capacity=4)
        request = SolveRequest(loads={leaf: value, other: 5}, budget=2)
        if isinstance(service_outcome, type):
            with pytest.raises(service_outcome):
                service.submit(request)
            return
        answer = service.submit(request)
        expected = Solver().solve(tree.with_loads({leaf: service_outcome, other: 5}), 2)
        assert (answer.cost, answer.blue_nodes) == (expected.cost, expected.blue_nodes)
        # The accepted int keys the cache exactly as the plain int does.
        again = service.submit(SolveRequest(loads={leaf: service_outcome, other: 5}, budget=2))
        assert again.cache_source == "memo"

    def test_unknown_switch(self, tree):
        loads = {"no-such-switch": 1}
        with pytest.raises(InvalidLoadError):
            TreeNetwork(_parents(tree), loads=loads)
        with pytest.raises(InvalidLoadError):
            tree.with_loads(loads)
        with pytest.raises(InvalidLoadError):
            PlacementService(tree, capacity=4).submit(SolveRequest(loads=loads, budget=1))

    def test_unknown_switch_is_reported_before_a_bad_value(self, tree):
        leaf = tree.leaves()[0]
        loads = {leaf: 2.5, "no-such-switch": 1}
        with pytest.raises(InvalidLoadError, match="unknown switch"):
            tree.with_loads(loads)


class TestLoadTotalBound:
    """Per-link message counts are int64 in the kernels: a load function
    whose total plus the switch count exceeds 2**63 - 1 is refused before
    any kernel runs, and one exactly at the bound is answered exactly."""

    @pytest.fixture()
    def tree(self):
        return bt_network(4)

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_overflowing_total_is_refused(self, tree, backend):
        # Each load is a valid int64; their sum is not.
        loads = {"s1_0": 2**62, "s1_1": 2**62}
        with pytest.raises(InvalidLoadError, match="2\\*\\*63"):
            tree.with_loads(loads)
        with pytest.raises(InvalidLoadError):
            TreeNetwork(_parents(tree), loads=loads)
        service = PlacementService(tree, capacity=4, backend=backend)
        with pytest.raises(WorkloadError, match="2\\*\\*63"):
            service.submit(SolveRequest(loads=loads, budget=0))
        with pytest.raises(WorkloadError):
            service.submit(SweepRequest(loads=loads, budgets=(0, 1)))
        assert service.cache.stats.lookups == 0

    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_total_at_the_bound_is_exact(self, tree, backend):
        loads = {"s1_0": 2**62, "s1_1": 2**63 - 1 - 2**62 - tree.num_switches}
        workload = tree.with_loads(loads)
        for budget in range(tree.num_switches + 1):
            placement = Solver(backend=backend).solve(workload, budget)
            assert placement.cost == utilization_cost(workload, placement.blue_nodes)
            assert placement.cost == placement.predicted_cost
        answer = PlacementService(tree, capacity=4, backend=backend).submit(
            SolveRequest(loads=loads, budget=0)
        )
        assert answer.cost == utilization_cost(workload, frozenset()) > 1e19


def _built_trees() -> dict[str, TreeNetwork]:
    base = bt_network(16)
    loads = sample_leaf_loads(base, PowerLawLoadDistribution(), rng=3)
    available = frozenset(sorted(base.switches)[::3])
    constructed = TreeNetwork(
        _parents(base), rates=base.rates, loads=loads, available=available
    )
    graph = nx.Graph()
    for switch in base.switches:
        graph.add_node(switch, load=loads.get(switch, 0))
        if base.parent(switch) != base.destination:
            graph.add_edge(switch, base.parent(switch), rate=base.rate(switch))
    networkx = TreeNetwork.from_networkx(graph, base.root, available=available)
    derived = constructed.with_loads({**loads, base.root: 4})
    return {
        "constructor": constructed,
        "from_networkx": networkx,
        "with_loads": derived,
        "with_loads_new_available": constructed.with_loads(loads, available=None),
        "with_available": derived.with_available(sorted(base.switches)[1::2]),
        "with_flipped": derived.with_flipped(sorted(base.switches)[:5]),
        "with_rates": derived.with_rates({base.root: 2.0}),
    }


TREES = _built_trees()


class TestFlatVectors:
    """The flat load vector and Λ mask equal a per-node reference, on every
    way of building a network, and neither can be written."""

    @staticmethod
    def _reference(tree, order):
        return (
            [tree.load(node) for node in order],
            [node in tree.available for node in order],
        )

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_flat_vectors_match_the_reference(self, name):
        tree = TREES[name]
        layout = tree.flat_layout()
        load, avail = tree.flat_vectors()
        assert load.dtype == np.int64 and avail.dtype == bool
        assert (load.tolist(), avail.tolist()) == self._reference(tree, layout.order)

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_gathered_tables_and_cost_models_carry_them(self, name):
        tree = TREES[name]
        flat = Solver().gather(tree, 4).result.flat
        model = cost_model_for(tree)
        for owner in (flat, model):
            expected = self._reference(tree, owner.order)
            assert (owner.load.tolist(), owner.avail.tolist()) == expected

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_vectors_are_read_only(self, name):
        tree = TREES[name]
        for array in tree.flat_vectors():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_a_changed_availability_is_not_served_a_stale_mask(self):
        tree = TREES["with_loads"]
        layout = tree.flat_layout()
        _, before = tree.flat_vectors()
        for available in (frozenset(), None, tree.available - {tree.root}):
            copy = tree.with_loads(tree.loads, available=available)
            _, avail = copy.flat_vectors()
            assert avail.tolist() == [node in copy.available for node in layout.order]
        again = tree.with_available(tree.available)
        assert again.flat_vectors()[1].tolist() == before.tolist()


class TestLoadDigests:
    """A cold request digests its loads once: the service's cache key."""

    @pytest.fixture()
    def digests(self, monkeypatch):
        calls: list[int] = []
        original = tree_module.fingerprint_loads

        def counting(loads):
            calls.append(len(loads))
            return original(loads)

        monkeypatch.setattr(tree_module, "fingerprint_loads", counting)
        monkeypatch.setattr(api_module, "fingerprint_loads", counting)
        return calls

    def test_cold_sweep_digests_its_loads_once(self, digests):
        tree = bt_network(64)
        service = PlacementService(tree, capacity=4)
        for seed in range(3):
            loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=seed)
            digests.clear()
            response = service.submit(SweepRequest(loads=loads, budgets=tuple(range(1, 9))))
            assert response.cache_source == "gather"
            assert len(digests) == 1

    def test_a_repair_lineage_digests_its_loads_once(self, digests):
        tree = bt_network(32)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=4)
        cold = Solver().gather(tree.with_loads(loads), 6)
        assert digests == []
        repaired = cold.repair([tree.root])
        repaired.repair([tree.leaves()[0]])
        cold.repair([tree.leaves()[1]])
        assert len(digests) == 1

    def test_table_fingerprint_is_the_tree_fingerprint(self):
        tree = bt_network(32)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=7)
        cold = Solver().gather(tree.with_loads(loads), 6)
        assert cold.fingerprint == cold.tree.fingerprint()
        repaired = cold.repair(sorted(tree.switches)[:3])
        assert repaired.fingerprint == repaired.tree.fingerprint()
        assert repaired.repaired_from == cold.fingerprint
        again = repaired.repair(sorted(tree.switches)[1:2])
        assert again.fingerprint == again.tree.fingerprint()
        assert again.repaired_from == repaired.fingerprint


class TestWithFlipped:
    """``with_flipped`` is ``with_available`` of the toggled Λ, validating
    only the flips."""

    @pytest.mark.parametrize("memoized", [False, True])
    def test_matches_with_available(self, memoized):
        tree = TREES["with_loads"]
        if memoized:
            tree.fingerprint()
        for flips in ([], sorted(tree.switches)[:4], [tree.root], sorted(tree.available)):
            flipped = tree.with_flipped(flips)
            expected = tree.with_available(tree.available ^ set(flips))
            assert flipped.available == expected.available
            assert flipped.fingerprint() == expected.fingerprint()
            assert flipped.availability_fingerprint() == fingerprint_nodes(flipped.available)
            assert flipped.flat_vectors()[1].tolist() == expected.flat_vectors()[1].tolist()
            assert flipped.loads == tree.loads
            assert flipped.flat_layout() is tree.flat_layout()

    def test_unknown_switch_raises(self):
        tree = TREES["with_loads"]
        with pytest.raises(AvailabilityError, match="no-such-switch"):
            tree.with_flipped([tree.root, "no-such-switch"])
