"""Metadata cache tests."""

import pytest

from repro.cloud.metadata import MetadataCache


class TestMetadataCache:
    def test_extend_and_lookup(self):
        cache = MetadataCache(0)
        cache.extend([3, 3])
        cache.extend([7])
        assert cache.ordinals_in([3]) == [0, 1]
        assert cache.ordinals_in([7]) == [2]
        assert cache.ordinals_in([5]) == []
        assert cache.leaves == [3, 3, 7]
        assert cache.entry_count == 3

    def test_ordinals_in_keeps_arrival_order_across_leaves(self):
        cache = MetadataCache(0)
        cache.extend([4, 2, 4, 9, 2])
        assert cache.ordinals_in(range(2, 5)) == [0, 1, 2, 4]

    def test_size_is_small_and_record_size_independent(self):
        # The paper's point: metadata is independent of e-record size.
        cache = MetadataCache(0)
        cache.extend([i % 10 for i in range(1000)])
        assert cache.size_bytes() == 24 * 1000

    def test_truncate_rolls_back_to_an_arrival_count(self):
        cache = MetadataCache(0)
        cache.extend([1, 2, 1, 2, 1])
        assert cache.truncate(3) == 2
        assert cache.leaves == [1, 2, 1]
        assert cache.ordinals_in([1, 2]) == [0, 1, 2]
        cache.extend([2])
        assert cache.ordinals_in([2]) == [1, 3]
        with pytest.raises(ValueError):
            cache.truncate(9)

    def test_release_hands_the_table_over_and_destroys(self):
        cache = MetadataCache(0)
        cache.extend([2, 2])
        table = cache.release()
        assert table == {2: [0, 1]}
        assert cache.is_destroyed
        assert cache.entry_count == 0
        assert cache.ordinals_in([2]) == []
        with pytest.raises(RuntimeError):
            cache.extend([1])
