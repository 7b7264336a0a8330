"""Unit tests for the tree network substrate (repro.core.tree)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.tree import TreeNetwork, fingerprint_loads
from repro.exceptions import (
    AvailabilityError,
    InvalidLoadError,
    InvalidRateError,
    TreeStructureError,
)
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads


class TestConstruction:
    def test_minimal_single_switch(self):
        tree = TreeNetwork({"r": "d"})
        assert tree.root == "r"
        assert tree.destination == "d"
        assert tree.num_switches == 1
        assert tree.height == 1

    def test_switches_are_postorder(self, paper_tree):
        order = {switch: index for index, switch in enumerate(paper_tree.switches)}
        for switch in paper_tree.switches:
            parent = paper_tree.parent(switch)
            if parent != paper_tree.destination:
                assert order[switch] < order[parent]

    def test_root_is_last_in_postorder(self, paper_tree):
        assert paper_tree.switches[-1] == paper_tree.root

    def test_rejects_destination_with_parent(self):
        with pytest.raises(TreeStructureError):
            TreeNetwork({"d": "r", "r": "d"})

    def test_rejects_empty_tree(self):
        with pytest.raises(TreeStructureError):
            TreeNetwork({})

    def test_rejects_two_roots(self):
        with pytest.raises(TreeStructureError):
            TreeNetwork({"r1": "d", "r2": "d"})

    def test_rejects_unknown_parent(self):
        with pytest.raises(TreeStructureError):
            TreeNetwork({"r": "d", "a": "ghost"})

    def test_rejects_self_parent(self):
        with pytest.raises(TreeStructureError):
            TreeNetwork({"r": "d", "a": "a"})

    def test_rejects_cycle(self):
        with pytest.raises(TreeStructureError):
            TreeNetwork({"r": "d", "a": "b", "b": "a"})

    def test_rejects_non_positive_rate(self):
        with pytest.raises(InvalidRateError):
            TreeNetwork({"r": "d"}, rates={"r": 0.0})
        with pytest.raises(InvalidRateError):
            TreeNetwork({"r": "d"}, rates={"r": -1.0})

    def test_rejects_rate_for_unknown_switch(self):
        with pytest.raises(InvalidRateError):
            TreeNetwork({"r": "d"}, rates={"ghost": 1.0})

    def test_rejects_negative_load(self):
        with pytest.raises(InvalidLoadError):
            TreeNetwork({"r": "d"}, loads={"r": -1})

    def test_rejects_fractional_load(self):
        with pytest.raises(InvalidLoadError):
            TreeNetwork({"r": "d"}, loads={"r": 1.5})

    def test_rejects_load_for_unknown_switch(self):
        with pytest.raises(InvalidLoadError):
            TreeNetwork({"r": "d"}, loads={"ghost": 2})

    def test_rejects_unknown_available_switch(self):
        with pytest.raises(AvailabilityError):
            TreeNetwork({"r": "d"}, available={"ghost"})

    def test_default_availability_is_all_switches(self, paper_tree):
        assert paper_tree.available == frozenset(paper_tree.switches)

    def test_from_edges(self):
        tree = TreeNetwork.from_edges([("r", "d"), ("a", "r"), ("b", "r")], loads={"a": 2})
        assert tree.num_switches == 3
        assert tree.load("a") == 2

    def test_from_edges_rejects_duplicate_child(self):
        with pytest.raises(TreeStructureError):
            TreeNetwork.from_edges([("r", "d"), ("a", "r"), ("a", "r")])


class TestAccessors:
    def test_parent_children(self, small_tree):
        assert small_tree.parent("a") == "r"
        assert small_tree.parent("r") == "d"
        assert set(small_tree.children("r")) == {"a", "b"}
        assert small_tree.children("a") == ()
        assert small_tree.num_children("r") == 2

    def test_parent_of_unknown_raises(self, small_tree):
        with pytest.raises(TreeStructureError):
            small_tree.parent("ghost")

    def test_is_leaf_and_leaves(self, small_tree):
        assert small_tree.is_leaf("a")
        assert small_tree.is_leaf("b")
        assert not small_tree.is_leaf("r")
        assert set(small_tree.leaves()) == {"a", "b"}

    def test_loads_and_rates(self, small_tree):
        assert small_tree.load("a") == 3
        assert small_tree.load("r") == 0
        assert small_tree.rate("b") == 4.0
        assert small_tree.rho("b") == pytest.approx(0.25)
        assert small_tree.total_load == 4

    def test_depth(self, small_tree):
        assert small_tree.depth("d") == 0
        assert small_tree.depth("r") == 1
        assert small_tree.depth("a") == 2
        assert small_tree.height == 2

    def test_contains_and_len(self, small_tree):
        assert "a" in small_tree
        assert "d" in small_tree
        assert "ghost" not in small_tree
        assert len(small_tree) == 3

    def test_is_switch(self, small_tree):
        assert small_tree.is_switch("a")
        assert not small_tree.is_switch("d")
        assert not small_tree.is_switch("ghost")


class TestPathsAndSubtrees:
    def test_ancestor_at(self, small_tree):
        assert small_tree.ancestor_at("a", 0) == "a"
        assert small_tree.ancestor_at("a", 1) == "r"
        assert small_tree.ancestor_at("a", 2) == "d"

    def test_ancestor_at_out_of_range(self, small_tree):
        with pytest.raises(TreeStructureError):
            small_tree.ancestor_at("a", 3)
        with pytest.raises(TreeStructureError):
            small_tree.ancestor_at("a", -1)

    def test_ancestors(self, small_tree):
        assert small_tree.ancestors("a") == ("r", "d")
        assert small_tree.ancestors("r") == ("d",)

    def test_path_rho(self, small_tree):
        # rho(a) = 1, rho(r) = 0.5
        assert small_tree.path_rho("a", 0) == pytest.approx(0.0)
        assert small_tree.path_rho("a", 1) == pytest.approx(1.0)
        assert small_tree.path_rho("a", 2) == pytest.approx(1.5)

    def test_path_rho_prefix_matches_path_rho(self, paper_tree):
        for switch in paper_tree.switches:
            prefix = paper_tree.path_rho_prefix(switch)
            assert len(prefix) == paper_tree.depth(switch) + 1
            for distance, value in enumerate(prefix):
                assert value == pytest.approx(paper_tree.path_rho(switch, distance))

    def test_rho_to_destination(self, small_tree):
        assert small_tree.rho_to_destination("a") == pytest.approx(1.5)
        assert small_tree.rho_to_destination("d") == 0.0

    def test_subtree(self, paper_tree):
        subtree = paper_tree.subtree("s1_0")
        assert set(subtree) == {"s1_0", "s2_0", "s2_1"}
        assert set(paper_tree.subtree(paper_tree.root)) == set(paper_tree.switches)

    def test_subtree_load(self, paper_tree):
        assert paper_tree.subtree_load("s1_0") == 8
        assert paper_tree.subtree_load("s1_1") == 9
        assert paper_tree.subtree_load(paper_tree.root) == 17

    def test_levels(self, paper_tree):
        levels = paper_tree.levels()
        assert [len(level) for level in levels] == [1, 2, 4]
        assert levels[0] == [paper_tree.root]


class TestDerivedCopies:
    def test_with_loads_replaces(self, small_tree):
        updated = small_tree.with_loads({"b": 5})
        assert updated.load("b") == 5
        assert updated.load("a") == 0  # full replacement
        assert small_tree.load("a") == 3  # original untouched

    def test_with_available(self, small_tree):
        restricted = small_tree.with_available({"a"})
        assert restricted.available == frozenset({"a"})
        assert small_tree.available == frozenset({"r", "a", "b"})

    def test_with_rates_patches(self, small_tree):
        updated = small_tree.with_rates({"a": 10.0})
        assert updated.rate("a") == 10.0
        assert updated.rate("b") == 4.0  # untouched rates kept

    def test_copies_share_topology(self, small_tree):
        updated = small_tree.with_loads({"a": 1})
        assert updated.switches == small_tree.switches
        assert updated.parent("a") == "r"


class TestNetworkxInterop:
    def test_roundtrip(self, paper_tree):
        graph = paper_tree.to_networkx()
        assert graph.number_of_nodes() == paper_tree.num_switches + 1
        assert graph.number_of_edges() == paper_tree.num_switches
        assert graph.nodes["s2_1"]["load"] == 6

    def test_from_networkx(self):
        graph = nx.Graph()
        graph.add_edge("r", "a", rate=2.0)
        graph.add_edge("r", "b")
        graph.nodes["a"]["load"] = 3
        tree = TreeNetwork.from_networkx(graph, root="r")
        assert tree.root == "r"
        assert tree.load("a") == 3
        assert tree.rate("a") == 2.0
        assert tree.rate("b") == 1.0

    def test_from_networkx_rejects_non_tree(self):
        graph = nx.cycle_graph(4)
        with pytest.raises(TreeStructureError):
            TreeNetwork.from_networkx(graph, root=0)

    def test_from_networkx_rejects_unknown_root(self):
        graph = nx.path_graph(3)
        with pytest.raises(TreeStructureError):
            TreeNetwork.from_networkx(graph, root=99)

    def test_from_networkx_rejects_destination_collision(self):
        graph = nx.path_graph(3)
        with pytest.raises(TreeStructureError):
            TreeNetwork.from_networkx(graph, root=0, destination=2)

    def test_deep_tree_does_not_recurse(self):
        # A path of 5000 switches must not hit the recursion limit.
        parents = {0: "d"}
        for node in range(1, 5000):
            parents[node] = node - 1
        tree = TreeNetwork(parents)
        assert tree.height == 5000
        assert tree.depth(4999) == 5000


class TestDigestGoldens:
    """Fingerprints are persisted in snapshots and journals: the digest
    bytes must never change, however ``_digest`` feeds them to the hash."""

    @pytest.fixture()
    def workload(self):
        tree = bt_network(1024)
        return tree, sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=2024)

    def test_fingerprint_loads_golden(self, workload):
        _, loads = workload
        assert sum(1 for value in loads.values() if value) == 512
        assert fingerprint_loads(loads) == "e154f27190e30b7a8ac6303006525f46"
        assert fingerprint_loads({}) == "cae66941d9efbd404e4d88758ea67670"

    def test_structure_and_instance_fingerprint_golden(self, workload):
        tree, loads = workload
        assert tree.structure_fingerprint() == "4e62c1472136a7fe54c4d472c4e52099"
        assert tree.with_loads(loads).fingerprint() == "ac0a54e74c41ae0a061ca940290506cd"
