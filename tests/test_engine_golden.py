"""Golden regression test: the Figure 5 gather tables, pinned entry by entry.

The running example of the paper (the 7-switch motivating tree, ``k = 2``)
is the one instance whose complete DP state — ``X``, ``Y^blue``, ``Y^red``,
colour choices, and the ``mCost`` argmin breadcrumbs — is small enough to
pin literally.  Any engine change that silently alters the DP semantics
(different tie-breaking, a shifted index, a reordered reduction) breaks
this file before it can corrupt the evaluation figures.

The values were derived from Eq. (4) / Algorithm 3 and cross-checked by
hand against the Figure 5 walkthrough; ``X_r(1, 2) = 20`` is the optimum
the paper reports for ``k = 2``.  Both backends and the reference walk must
reproduce every entry exactly (no tolerance: all quantities are small dyadic
floats).
"""

from __future__ import annotations

import numpy as np
import pytest

from backend_params import GATHER_PARAMS
from repro.experiments.motivating import motivating_tree

INF = np.inf

#: Complete expected gather state for the running example at k = 2.
#: Rows are the parameter l (distance to the closest blue ancestor), columns
#: the budget i.  Splits are listed per stage (children c_2..c_C).
GOLDEN = {
    # Leaf with load 2 at depth 3: red row l * 2, blue row l for i >= 1.
    "s2_0": {
        "x": [[0, 0, 0], [2, 1, 1], [4, 2, 2], [6, 3, 3]],
        "y_red": [[0, 0, 0], [2, 2, 2], [4, 4, 4], [6, 6, 6]],
        "y_blue": [[INF, 0, 0], [INF, 1, 1], [INF, 2, 2], [INF, 3, 3]],
        "choice": [[0, 0, 0], [0, 1, 1], [0, 1, 1], [0, 1, 1]],
        "splits_red": [],
        "splits_blue": [],
    },
    # Internal node above the leaves with loads (2, 6):
    #   X_a(l, 0) = 8 + 8l, X_a(l, 1) = min(8 + l, 3 + 3l, 7 + 7l),
    #   X_a(l, 2) = min(3 + l, 2 + 2l).
    "s1_0": {
        "x": [[8, 3, 2], [16, 6, 4], [24, 9, 5]],
        "y_red": [[8, 3, 2], [16, 6, 4], [24, 9, 6]],
        "y_blue": [[INF, 8, 3], [INF, 9, 4], [INF, 10, 5]],
        "choice": [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        # Red: one unit goes to the heavy child (load 6) as soon as i >= 1.
        "splits_red": [[[0, 1, 1], [0, 1, 1], [0, 1, 1]]],
        # Blue: the node itself consumes one unit; the heavy child gets the
        # second unit only at i = 2.
        "splits_blue": [[[0, 0, 1], [0, 0, 1], [0, 0, 1]]],
    },
    # Internal node above the leaves with loads (5, 4).
    "s1_1": {
        "x": [[9, 5, 2], [18, 10, 4], [27, 11, 6]],
        "y_red": [[9, 5, 2], [18, 10, 4], [27, 15, 6]],
        "y_blue": [[INF, 9, 5], [INF, 10, 6], [INF, 11, 7]],
        "choice": [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
        "splits_red": [[[0, 0, 1], [0, 0, 1], [0, 0, 1]]],
        "splits_blue": [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
    },
    # The root: X_r(1, 2) = 20 is the k = 2 optimum of Figures 3 and 5.
    "s0_0": {
        "x": [[34, 24, 16], [51, 35, 20]],
        "y_red": [[34, 24, 16], [51, 35, 20]],
        "y_blue": [[INF, 34, 24], [INF, 35, 25]],
        "choice": [[0, 0, 0], [0, 0, 0]],
        "splits_red": [[[0, 0, 1], [0, 1, 1]]],
        "splits_blue": [[[0, 0, 0], [0, 0, 0]]],
    },
}


@pytest.mark.parametrize("run_gather", GATHER_PARAMS)
class TestFigure5Golden:
    @pytest.fixture
    def gathered(self, run_gather):
        return run_gather(motivating_tree(), 2)

    @pytest.mark.parametrize("node", sorted(GOLDEN))
    def test_tables_match_golden(self, gathered, node):
        tables = gathered.tables[node]
        expected = GOLDEN[node]
        assert np.array_equal(tables.x, np.array(expected["x"], dtype=float)), node
        assert np.array_equal(tables.y_red, np.array(expected["y_red"], dtype=float))
        assert np.array_equal(tables.y_blue, np.array(expected["y_blue"], dtype=float))
        assert np.array_equal(tables.choice, np.array(expected["choice"]))
        assert len(tables.splits_red) == len(expected["splits_red"])
        for actual, pinned in zip(tables.splits_red, expected["splits_red"]):
            assert np.array_equal(actual, np.array(pinned))
        assert len(tables.splits_blue) == len(expected["splits_blue"])
        for actual, pinned in zip(tables.splits_blue, expected["splits_blue"]):
            assert np.array_equal(actual, np.array(pinned))

    def test_optimum_is_twenty(self, gathered):
        assert gathered.optimal_cost == 20.0

    def test_breadcrumb_dtypes_and_shapes(self, gathered):
        # The breadcrumb *format* is part of the contract: float64 tables of
        # shape (D(v) + 1, k + 1), uint8 choices, integer splits.
        tree = motivating_tree()
        for node in tree.switches:
            tables = gathered.tables[node]
            expected_shape = (tree.depth(node) + 1, 3)
            assert tables.x.shape == expected_shape
            assert tables.x.dtype == np.float64
            assert tables.choice.shape == expected_shape
            assert tables.choice.dtype == np.uint8
            assert len(tables.splits_red) == max(0, tree.num_children(node) - 1)
            for split in tables.splits_red + tables.splits_blue:
                assert split.shape == expected_shape
                assert np.issubdtype(split.dtype, np.integer)
