"""Matching-process tests: FRESQUE metadata walk vs PINED-RQ++ read-back."""

from repro.cloud.matching import match_with_metadata, match_with_table
from repro.cloud.metadata import MetadataCache
from repro.cloud.storage import EncryptedStore


def _write(store: EncryptedStore, *fills: int) -> int:
    """Append 48-byte tagged ciphertexts (leaf unknown) to file 0."""
    return store.append_columns(
        0, [bytes([fill]) * 48 for fill in fills], [None] * len(fills)
    )


class TestMetadataMatching:
    def test_builds_pointers_without_io(self):
        store = EncryptedStore()
        cache = MetadataCache(0)
        _write(store, *range(10))
        cache.extend([i % 3 for i in range(10)])
        read_before = store.bytes_read
        pointers, stats = match_with_metadata(cache)
        assert stats.records == 10
        assert stats.bytes_read == 0
        assert stats.bytes_written == 0
        assert store.bytes_read == read_before  # zero disk I/O
        assert pointers.total == 10
        assert list(pointers.ordinals(0)) == [0, 3, 6, 9]

    def test_cache_destroyed_after_matching(self):
        cache = MetadataCache(0)
        match_with_metadata(cache)
        assert cache.is_destroyed


class TestTableMatching:
    def test_reads_every_record_back(self):
        store = EncryptedStore()
        tag_ordinals = {}
        table = {}
        for tag in range(10):
            tag_ordinals[tag] = _write(store, tag)
            table[tag] = tag % 3
        pointers, stats = match_with_table(store, 0, tag_ordinals, table)
        assert stats.records == 10
        assert stats.table_lookups == 10
        assert stats.bytes_read == 10 * 48
        assert stats.bytes_written == 10 * 48
        assert store.read_ops >= 10  # actual read-back happened
        assert pointers.total == 10

    def test_unknown_tags_skipped(self):
        store = EncryptedStore()
        ordinal = _write(store, 1)
        pointers, stats = match_with_table(store, 0, {42: ordinal}, {})
        assert stats.records == 0
        assert stats.table_lookups == 1
        assert pointers.total == 0

    def test_io_asymmetry_vs_metadata(self):
        """The architectural claim behind Figure 15: table matching I/O
        grows with the publication, metadata matching stays at zero."""
        store = EncryptedStore()
        cache = MetadataCache(0)
        tag_ordinals = {}
        table = {}
        for i in range(200):
            tag_ordinals[i] = _write(store, i % 250)
            cache.extend([i % 5])
            table[i] = i % 5
        _, fresque_stats = match_with_metadata(cache)
        _, pp_stats = match_with_table(store, 0, tag_ordinals, table)
        assert fresque_stats.bytes_read == 0
        assert pp_stats.bytes_read == 200 * 48
