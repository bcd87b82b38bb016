"""Range-query traversal tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.domain import AttributeDomain
from repro.index.query import RangeQuery, traverse
from repro.index.tree import IndexTree


@pytest.fixture
def tree(small_domain):
    tree = IndexTree(small_domain, fanout=4)
    tree.set_leaf_counts([3, 0, 5, 2, 0, 7, 1, 4, 0, 2])
    return tree


class TestRangeQuery:
    def test_contains(self):
        query = RangeQuery(10, 20)
        assert query.contains(10)
        assert query.contains(20)
        assert not query.contains(9.99)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            RangeQuery(20, 10)

    @pytest.mark.parametrize(
        ("low", "high"),
        [(math.nan, 5.0), (0.0, math.nan), (math.nan, math.nan)],
        ids=["nan-low", "nan-high", "nan-both"],
    )
    def test_nan_bound_rejected(self, low, high):
        """``high < low`` is False for a NaN bound, yet the range holds
        no value: it is rejected like an inverted one."""
        with pytest.raises(ValueError, match="empty query range"):
            RangeQuery(low, high)

    def test_infinite_bounds_accepted(self):
        query = RangeQuery(-math.inf, math.inf)
        assert query.contains(0) and query.contains(-1e300)


class TestTraversal:
    def test_clear_index_returns_overlapping_leaves(self, tree):
        result = traverse(tree, RangeQuery(15, 34))
        assert result.leaf_offsets == (1, 2, 3)
        assert result.pruned_leaves == ()

    def test_whole_domain(self, tree):
        result = traverse(tree, RangeQuery(0, 100))
        assert result.leaf_offsets == tuple(range(10))

    def test_disjoint_query(self, tree):
        result = traverse(tree, RangeQuery(500, 600))
        assert result.leaf_offsets == ()
        assert result.nodes_visited == 0

    def test_negative_leaf_pruned(self, tree):
        tree.leaves[2].count = -1
        result = traverse(tree, RangeQuery(15, 34))
        assert result.leaf_offsets == (1, 3)
        assert result.pruned_leaves == (2,)

    def test_negative_internal_node_prunes_subtree(self, tree):
        tree.levels[1][0].count = -2  # covers leaves 0-3
        result = traverse(tree, RangeQuery(0, 100))
        assert result.leaf_offsets == tuple(range(4, 10))
        assert result.pruned_leaves == (0, 1, 2, 3)

    def test_nodes_visited_counts_cost(self, tree):
        narrow = traverse(tree, RangeQuery(15, 16))
        wide = traverse(tree, RangeQuery(0, 100))
        assert narrow.nodes_visited < wide.nodes_visited

    def test_zero_count_leaf_still_returned(self, tree):
        # Only *negative* counts prune (Section 4.1).
        result = traverse(tree, RangeQuery(10, 19))
        assert result.leaf_offsets == (1,)


@settings(max_examples=40)
@given(
    low=st.floats(min_value=0, max_value=100),
    width=st.floats(min_value=0, max_value=100),
    seed=st.integers(min_value=0, max_value=99),
)
def test_traversal_covers_query_property(low, width, seed):
    """Over a non-negative index, traversal returns exactly the leaves
    whose interval intersects the query."""
    domain = AttributeDomain(0, 100, 10)
    tree = IndexTree(domain, fanout=4)
    rng = random.Random(seed)
    tree.set_leaf_counts([rng.randrange(10) for _ in range(10)])
    high = min(100, low + width)
    result = traverse(tree, RangeQuery(low, high))
    expected = tuple(domain.leaves_overlapping(low, high))
    assert result.leaf_offsets == expected
    assert result.pruned_leaves == ()
