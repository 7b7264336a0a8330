"""Shared fixtures for the SOAR reproduction test-suite.

Test tiers
----------
The suite has two tiers:

* **quick** — everything not marked ``slow``; runs in a few seconds and is
  the tier CI gates merges on.  Select it with ``pytest -m "not slow"``.
* **slow** — the heavyweight randomized differential sweeps (hundreds of
  instances per test, trees up to a few hundred nodes).  Run them alone
  with ``pytest -m slow``; a plain ``pytest`` run executes both tiers.

Both tiers run with ``DeprecationWarning`` escalated to an error (see
:func:`pytest_configure`).
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.tree import TreeNetwork
from repro.experiments.motivating import motivating_tree
from repro.topology.binary_tree import complete_binary_tree


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: heavyweight randomized differential sweeps; deselect with -m 'not slow'",
    )
    # The deprecated pre-Solver shims are gone; every run of the suite
    # treats a DeprecationWarning as an error, so nothing quietly grows a
    # new deprecated code path.
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
    # Except one raised from outside the project: when a hypothesis test
    # fails, hypothesis imports libcst for its patch hint, and libcst
    # warns through mypy_extensions.TypedDict.  As an error it ends the
    # run in INTERNALERROR instead of the falsifying example.
    config.addinivalue_line(
        "filterwarnings",
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator, freshly seeded for every test."""
    return np.random.default_rng(1234)


#: Session-wide base seed every randomized test derives from (the paper's
#: CoNEXT session date).
SESSION_SEED: int = 20211207


@pytest.fixture(scope="session")
def session_seed() -> np.random.SeedSequence:
    """The session-wide seed sequence all randomized tests derive from."""
    return np.random.SeedSequence(SESSION_SEED)


@pytest.fixture
def session_rng(session_seed, request) -> np.random.Generator:
    """A generator derived from the session seed and the test's own id.

    Different tests explore different instance streams, but each test's
    stream depends only on the session seed and its nodeid — so a failure
    reproduces when the test is rerun in isolation or the suite is
    reordered.
    """
    node_key = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng([session_seed.entropy, node_key])


@pytest.fixture
def paper_tree() -> TreeNetwork:
    """The 7-switch motivating-example tree of Figures 2 and 3."""
    return motivating_tree()


@pytest.fixture
def small_tree() -> TreeNetwork:
    """A 3-switch tree with uneven rates, handy for hand-computed expectations.

    Layout::

        d <- r (rate 2) <- a (rate 1, load 3)
                        <- b (rate 4, load 1)
    """
    return TreeNetwork(
        parents={"r": "d", "a": "r", "b": "r"},
        rates={"r": 2.0, "a": 1.0, "b": 4.0},
        loads={"a": 3, "b": 1},
    )


@pytest.fixture
def loaded_bt16() -> TreeNetwork:
    """A BT(16) tree (15 switches) with deterministic skewed leaf loads."""
    loads = [1, 9, 2, 8, 3, 7, 4, 6]
    return complete_binary_tree(8, leaf_loads=loads)


def make_random_instance(
    rng: np.random.Generator,
    max_switches: int = 10,
    max_load: int = 6,
    rate_choices=(0.5, 1.0, 2.0, 4.0),
) -> TreeNetwork:
    """Build a small random tree instance for randomized comparison tests.

    Retained for the older tests; new randomized tests should prefer the
    richer generators in :mod:`repro.testing`.
    """
    num_switches = int(rng.integers(1, max_switches + 1))
    parents = {0: "d"}
    for node in range(1, num_switches):
        parents[node] = int(rng.integers(0, node))
    rates = {node: float(rng.choice(rate_choices)) for node in parents}
    loads = {node: int(rng.integers(0, max_load + 1)) for node in parents}
    return TreeNetwork(parents, rates=rates, loads=loads)
