# lint-fixture-module: repro.service.fixture_layering_good
"""Negative fixture: the service layer may import the pure layers."""

from repro.core.engine import BACKENDS
from repro.core.tree import TreeNetwork
from repro.topology import fat_tree


def build(k: int) -> tuple:
    return TreeNetwork, fat_tree, BACKENDS, k
