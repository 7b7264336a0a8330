"""The :class:`~repro.core.tree.Loads` value: one pass, one digest, one serialisation.

A request's load map is validated and laid out once, as a ``Loads`` value
bound to one network's flat layout.  These tests pin what that value
holds (the same loads as the network built from the plain mapping), when
two values digest alike, that its digest is the only load digest (equal
instances fingerprint alike however their networks were built), that a
workload network adopts its vector, and that the service derives every
cold request's network from one fleet network kept at the live Λ.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import BACKENDS, gather, repair
from repro.core.tree import Loads, TreeNetwork, fingerprint_loads
from repro.exceptions import InvalidLoadError, WorkloadError
from repro.service import AdmitRequest, PlacementService, SweepRequest
from repro.testing import assert_tables_equal
from repro.topology.binary_tree import bt_network
from repro.workload.distributions import PowerLawLoadDistribution, sample_leaf_loads

TREE = bt_network(16)
SWITCHES = sorted(TREE.switches, key=str)

#: Load maps that are not load functions of ``TREE``.
BAD_LOADS = [
    ({"no-such-switch": 1}, InvalidLoadError),
    ({"s3_0": 2.5, "no-such-switch": 1}, InvalidLoadError),
    ({"s3_0": 2.5}, WorkloadError),
    ({"s3_0": -1}, WorkloadError),
    ({"s3_0": "x"}, WorkloadError),
    ({"s3_0": [1]}, WorkloadError),
    ({"s3_0": 3, "s3_1": np.array([1, 2])}, WorkloadError),
    ({"s3_0": 2**62, "s3_1": 2**62}, WorkloadError),
    ({"s3_0": np.int64(2**62), "s3_1": np.int64(2**62)}, WorkloadError),
]
BAD_LOAD_IDS = [
    "unknown", "unknown-first", "fractional", "negative", "text", "list",
    "array", "overflow", "numpy-overflow",
]

#: Integer-valued loads of every type a load map may carry.
int_like = st.sampled_from([int, np.int64, float])


@st.composite
def instances(draw):
    """A random weighted tree with loads and Λ, and a second order of its switches."""
    n = draw(st.integers(1, 24))
    parents = {"v0": "d"}
    for i in range(1, n):
        parents[f"v{i}"] = f"v{draw(st.integers(0, i - 1))}"
    nodes = list(parents)
    rates = {node: draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) for node in nodes}
    loads = draw(st.dictionaries(st.sampled_from(nodes), st.integers(0, 2**40)))
    available = draw(st.sets(st.sampled_from(nodes)))
    return parents, rates, loads, available, draw(st.permutations(nodes))


def _reference_vector(tree: TreeNetwork, loads) -> list[int]:
    built = tree.with_loads(loads)
    return [built.load(node) for node in tree.flat_layout().order]


class TestValue:
    def test_holds_the_loads_of_the_network_built_from_the_mapping(self):
        loads = sample_leaf_loads(TREE, PowerLawLoadDistribution(), rng=1)
        value = Loads.of(TREE, loads)
        built = TREE.with_loads(loads)
        assert value.vector.dtype == np.int64
        assert value.vector.tolist() == _reference_vector(TREE, loads)
        assert dict(value) == built.loads == dict(value.items())
        assert list(value) == list(built.loads)
        assert value[TREE.root] == 0 and len(value) == TREE.num_switches
        assert sum(value.values()) == built.total_load

    def test_vector_is_read_only(self):
        value = Loads.of(TREE, {TREE.leaves()[0]: 3})
        with pytest.raises(ValueError, match="read-only"):
            value.vector[0] = 1

    def test_serialized_is_the_sorted_nonzero_entries(self):
        loads = {leaf: position % 3 for position, leaf in enumerate(TREE.leaves())}
        value = Loads.of(TREE, loads)
        expected = tuple(sorted((str(node), load) for node, load in loads.items() if load))
        assert value.serialized == expected
        assert value.serialized is value.serialized

    @pytest.mark.parametrize("loads, error", BAD_LOADS, ids=BAD_LOAD_IDS)
    def test_typed_errors(self, loads, error):
        with pytest.raises(error):
            Loads.of(TREE, loads, WorkloadError)

    @pytest.mark.parametrize("loads, error", BAD_LOADS, ids=BAD_LOAD_IDS)
    def test_the_constructor_refuses_alike(self, loads, error):
        # One set of checks serves both: same error type, same message.
        with pytest.raises(InvalidLoadError) as by_value:
            Loads.of(TREE, loads)
        with pytest.raises(InvalidLoadError) as by_network:
            TREE.with_loads(loads)
        assert str(by_value.value) == str(by_network.value)

    def test_the_unknown_switch_is_named(self):
        with pytest.raises(InvalidLoadError, match="no-such-switch"):
            Loads.of(TREE, {"s3_0": 2.5, "no-such-switch": 1})


class TestDigest:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        entries=st.dictionaries(
            st.sampled_from(SWITCHES), st.integers(0, 2**40), max_size=len(SWITCHES)
        ),
        kinds=st.lists(int_like, min_size=len(SWITCHES), max_size=len(SWITCHES)),
        data=st.data(),
    )
    def test_equal_across_order_zeros_and_integer_types(self, entries, kinds, data):
        digest = fingerprint_loads(Loads.of(TREE, entries))
        shuffled = data.draw(st.permutations(sorted(entries, key=str)))
        # Same loads: shuffled insertion order, integer-valued values of
        # other types, and explicit zeros for every other switch.
        rewritten = {
            node: kind(entries[node]) for node, kind in zip(shuffled, kinds)
        }
        rewritten.update({node: 0 for node in SWITCHES if node not in entries})
        assert fingerprint_loads(Loads.of(TREE, rewritten)) == digest
        flagged = {node: True if load == 1 else load for node, load in entries.items()}
        assert fingerprint_loads(Loads.of(TREE, flagged)) == digest

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.dictionaries(
            st.sampled_from(SWITCHES), st.integers(0, 100), min_size=1, max_size=8
        ),
        node=st.sampled_from(SWITCHES),
    )
    def test_differs_across_loads(self, entries, node):
        changed = {**entries, node: entries.get(node, 0) + 1}
        assert fingerprint_loads(Loads.of(TREE, changed)) != fingerprint_loads(
            Loads.of(TREE, entries)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.dictionaries(
            st.sampled_from(SWITCHES), st.integers(0, 100), max_size=8
        ),
    )
    def test_differs_across_structures(self, entries):
        rerated = TREE.with_rates({TREE.root: 2.0})
        bigger = bt_network(32)
        digests = {
            fingerprint_loads(Loads.of(tree, entries)) for tree in (TREE, rerated, bigger)
        }
        assert len(digests) == 3

    def test_bool_and_numpy_values(self):
        leaf, other = TREE.leaves()[:2]
        plain = fingerprint_loads(Loads.of(TREE, {leaf: 1, other: 3}))
        assert fingerprint_loads(Loads.of(TREE, {other: np.int64(3), leaf: True})) == plain

    def test_is_little_endian_int64_after_the_structure(self):
        import hashlib

        value = Loads.of(TREE, {TREE.leaves()[0]: 7, TREE.leaves()[5]: 2})
        # The loads in the canonical order: switches sorted by repr.
        canonical = [value[node] for node in sorted(TREE.switches, key=repr)]
        expected = hashlib.blake2b(
            TREE.structure_fingerprint().encode()
            + np.array(canonical, dtype="<i8").tobytes(),
            digest_size=16,
        ).hexdigest()
        assert value.digest() == fingerprint_loads(value) == expected

    @settings(max_examples=80, deadline=None)
    @given(instance=instances())
    def test_equal_instances_fingerprint_alike_however_built(self, instance):
        parents, rates, loads, available, order = instance
        base = TreeNetwork(parents, rates=rates)
        reordered = {node: parents[node] for node in order}
        shuffled = TreeNetwork(reordered, rates=rates)
        built = [
            TreeNetwork(parents, rates=rates, loads=loads, available=available),
            base.with_loads(loads, available=available),
            base.with_loads(Loads.of(base, loads), available=available),
            TreeNetwork(reordered, rates=rates, loads=loads, available=available),
            shuffled.with_loads(Loads.of(shuffled, loads), available=available),
        ]
        assert len({tree.loads_fingerprint() for tree in built}) == 1
        assert len({tree.fingerprint() for tree in built}) == 1


class TestAdoption:
    def test_with_loads_adopts_the_vector(self):
        loads = sample_leaf_loads(TREE, PowerLawLoadDistribution(), rng=2)
        value = Loads.of(TREE, loads)
        workload = TREE.with_loads(value, available=sorted(TREE.switches)[::2])
        assert workload.flat_vectors()[0] is value.vector
        assert workload.load_function() is value
        assert workload.loads == TREE.with_loads(loads).loads
        # The instance digest names the Loads digest; its flips keep it.
        assert workload.loads_fingerprint() == value.digest()
        assert workload.with_flipped([TREE.root]).loads_fingerprint() == value.digest()

    def test_a_value_of_another_layout_is_validated_as_a_mapping(self):
        loads = sample_leaf_loads(TREE, PowerLawLoadDistribution(), rng=3)
        twin = bt_network(16)
        value = Loads.of(twin, loads)
        workload = TREE.with_loads(value)
        assert workload.flat_vectors()[0] is not value.vector
        assert workload.flat_vectors()[0].tolist() == _reference_vector(TREE, loads)

    def test_load_function_of_a_plain_network(self):
        loads = sample_leaf_loads(TREE, PowerLawLoadDistribution(), rng=4)
        built = TREE.with_loads(loads)
        assert built.load_function().vector.tolist() == built.flat_vectors()[0].tolist()
        assert built.load_function().digest() == Loads.of(TREE, loads).digest()

    def test_same_loads_whichever_way_they_are_held(self):
        loads = sample_leaf_loads(TREE, PowerLawLoadDistribution(), rng=5)
        plain = TREE.with_loads(loads)
        adopted = TREE.with_loads(Loads.of(TREE, loads))
        digest = plain.loads_fingerprint()
        assert adopted.loads_fingerprint() == digest
        assert plain.fingerprint() == adopted.fingerprint()
        assert plain.with_flipped([TREE.root]).loads_fingerprint() == digest
        other = TREE.with_loads({**loads, TREE.root: 1})
        assert other.loads_fingerprint() != digest

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda backend: backend.name)
    def test_a_plain_network_table_repairs_onto_an_adopted_one(self, backend):
        loads = sample_leaf_loads(TREE, PowerLawLoadDistribution(), rng=6)
        plain = TREE.with_loads(loads)
        adopted = TREE.with_loads(
            Loads.of(TREE, loads), available=TREE.available - {TREE.leaves()[0]}
        )
        for source, target in ((plain, adopted), (adopted, plain)):
            repaired = repair(gather(source, 4, backend=backend), target, backend)
            assert_tables_equal(gather(target, 4, backend=backend), repaired)


class TestServiceLoads:
    @pytest.fixture()
    def tree(self):
        return bt_network(64)

    def _sweep(self, service, tree, seed):
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=seed)
        response = service.submit(SweepRequest(loads=loads, budgets=(1, 4)))
        assert response.cache_source == "gather"
        (key,) = [key for key in service.cache.keys() if key.loads == service._intern(loads)[1]]
        return service.cache.tables()[service.cache.keys().index(key)][1]

    def test_cold_requests_share_one_live_mask(self, tree):
        service = PlacementService(tree, capacity=4)
        first = self._sweep(service, tree, 1)
        second = self._sweep(service, tree, 2)
        assert first.result.flat.avail is second.result.flat.avail
        assert first.tree.flat_layout() is tree.flat_layout()

    def test_mask_after_an_admit_equals_a_per_node_reference(self, tree):
        service = PlacementService(tree, capacity=1)
        before = self._sweep(service, tree, 1)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=9)
        service.submit(AdmitRequest(tenant_id="t", loads=loads, budget=6))
        after = self._sweep(service, tree, 2)
        live = service.available()
        assert live != before.tree.available
        reference = [node in live for node in tree.flat_layout().order]
        assert after.result.flat.avail.tolist() == reference
        assert after.tree.available == live
        # A second cold request at the same Λ shares the re-derived mask.
        assert self._sweep(service, tree, 3).result.flat.avail is after.result.flat.avail

    def test_a_repeated_map_is_interned(self, tree):
        service = PlacementService(tree, capacity=4)
        loads = sample_leaf_loads(tree, PowerLawLoadDistribution(), rng=5)
        value, digest = service._intern(loads)
        assert service._intern(dict(loads)) == (value, digest)
        assert service._intern(value) == (value, digest)
        # A reordered map is a new entry with the same digest.
        reordered = dict(reversed(list(loads.items())))
        assert service._intern(reordered)[1] == digest

    def test_an_unhashable_value_is_a_typed_error(self, tree):
        service = PlacementService(tree, capacity=4)
        with pytest.raises(WorkloadError):
            service._intern({tree.leaves()[0]: [1]})
