"""Attribute domain and leaf-offset tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.domain import (
    AttributeDomain,
    DomainError,
    gowalla_domain,
    nasa_domain,
)


class TestDomainConstruction:
    def test_paper_domains(self):
        # Section 7.1: NASA reply bytes 3421 bins of 1 KB; Gowalla 626
        # one-hour bins.
        assert nasa_domain().num_leaves == 3421
        assert gowalla_domain().num_leaves == 626

    def test_bad_bin_interval(self):
        with pytest.raises(DomainError):
            AttributeDomain(0, 100, 0)
        with pytest.raises(DomainError):
            AttributeDomain(0, 100, -5)

    def test_inverted_bounds(self):
        with pytest.raises(DomainError):
            AttributeDomain(100, 0, 10)

    def test_sub_bin_domain(self):
        with pytest.raises(DomainError):
            AttributeDomain(0, 5, 10)


class TestLeafOffset:
    def test_paper_formula(self, small_domain):
        # Ov = min(floor((v-dmin)/Ib), floor((dmax-dmin)/Ib)-1)
        assert small_domain.leaf_offset(0) == 0
        assert small_domain.leaf_offset(9.99) == 0
        assert small_domain.leaf_offset(10) == 1
        assert small_domain.leaf_offset(95) == 9
        assert small_domain.leaf_offset(100) == 9  # dmax clamps to last leaf

    def test_out_of_domain_rejected(self, small_domain):
        with pytest.raises(DomainError):
            small_domain.leaf_offset(-0.1)
        with pytest.raises(DomainError):
            small_domain.leaf_offset(100.1)

    def test_non_divisible_domain(self):
        domain = AttributeDomain(0, 25, 10)  # 2 leaves; last covers [10, 25]
        assert domain.num_leaves == 2
        assert domain.leaf_offset(24) == 1
        assert domain.leaf_range(1) == (10, 25)


class TestLeafRange:
    def test_ranges_tile_domain(self, small_domain):
        previous_high = small_domain.dmin
        for offset in range(small_domain.num_leaves):
            low, high = small_domain.leaf_range(offset)
            assert low == previous_high
            previous_high = high
        assert previous_high == small_domain.dmax

    def test_spans_are_the_ranges_as_low_and_width(self):
        """The last leaf absorbs a non-divisible domain's remainder."""
        domain = AttributeDomain(dmin=5, dmax=37, bin_interval=10)
        assert domain.leaf_spans() == [(5, 10), (15, 10), (25, 12)]

    def test_bad_offset(self, small_domain):
        with pytest.raises(DomainError):
            small_domain.leaf_range(-1)
        with pytest.raises(DomainError):
            small_domain.leaf_range(10)


class TestLeavesOverlapping:
    def test_inside(self, small_domain):
        assert list(small_domain.leaves_overlapping(15, 34)) == [1, 2, 3]

    def test_whole_domain(self, small_domain):
        assert list(small_domain.leaves_overlapping(0, 100)) == list(range(10))

    def test_outside(self, small_domain):
        assert list(small_domain.leaves_overlapping(200, 300)) == []
        assert list(small_domain.leaves_overlapping(-50, -10)) == []

    def test_partially_outside_is_clipped(self, small_domain):
        assert list(small_domain.leaves_overlapping(-10, 5)) == [0]
        assert list(small_domain.leaves_overlapping(95, 500)) == [9]

    def test_inverted_range_rejected(self, small_domain):
        with pytest.raises(DomainError):
            small_domain.leaves_overlapping(10, 5)


@given(value=st.floats(min_value=0, max_value=3421 * 1024))
def test_offset_always_in_range_property(value):
    """Every in-domain value maps to a valid leaf."""
    domain = nasa_domain()
    offset = domain.leaf_offset(value)
    assert 0 <= offset < domain.num_leaves
    low, high = domain.leaf_range(offset)
    assert low <= value <= (high if offset == domain.num_leaves - 1 else high)


@given(
    value=st.floats(min_value=0, max_value=100, exclude_max=True),
)
def test_offset_matches_leaf_range_property(value):
    """leaf_offset(v) is exactly the leaf whose range contains v."""
    domain = AttributeDomain(0, 100, 10)
    offset = domain.leaf_offset(value)
    low, high = domain.leaf_range(offset)
    assert low <= value < high or (offset == domain.num_leaves - 1 and value <= high)
