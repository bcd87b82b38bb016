"""Encrypted store tests."""

import pytest

from repro.cloud.storage import EncryptedStore, StorageError


def _ciphertext(size: int = 32, fill: int = 0) -> bytes:
    return bytes([fill]) * size


class TestPublicationFile:
    def test_append_returns_sequential_addresses(self):
        """A record's address in its file is its arrival ordinal."""
        store = EncryptedStore()
        assert store.append_columns(0, [_ciphertext(32)], [4]) == 0
        assert store.append_columns(0, [_ciphertext(48)] * 2, [5, 6]) == 1
        assert store.append_columns(0, [_ciphertext(8)], [7]) == 3

    def test_read_back(self):
        store = EncryptedStore()
        store.append_columns(0, [_ciphertext(fill=7), _ciphertext(fill=8)], [1, 2])
        assert store.read_ordinals(0, [1, 0]) == [
            _ciphertext(fill=8), _ciphertext(fill=7)
        ]

    def test_read_unknown_offset(self):
        """An ordinal past the file's last record reads nothing."""
        store = EncryptedStore()
        store.append_columns(0, [_ciphertext()], [0])
        with pytest.raises(StorageError):
            store.read_ordinals(0, [5])

    def test_read_unknown_file(self):
        store = EncryptedStore()
        with pytest.raises(StorageError):
            store.read_ordinals(9, [0])

    def test_scan_in_write_order(self):
        store = EncryptedStore()
        for i in range(5):
            store.append_columns(1, [_ciphertext(fill=i)], [i % 2])
        assert list(store.scan(1)) == [
            (i % 2, _ciphertext(fill=i)) for i in range(5)
        ]


class TestEncryptedStore:
    def test_io_accounting(self):
        store = EncryptedStore()
        store.append_columns(0, [_ciphertext(64)], [0])
        store.read_ordinals(0, [0])
        assert store.bytes_written == 64
        assert store.bytes_read == 64
        assert store.write_ops == 1
        assert store.read_ops == 1

    def test_total_bytes_across_files(self):
        store = EncryptedStore()
        store.append_columns(0, [_ciphertext(10)], [0])
        store.append_columns(1, [_ciphertext(20)], [0])
        assert store.total_bytes == 30

    def test_duplicate_file_rejected(self):
        store = EncryptedStore()
        store.create_file(3)
        with pytest.raises(StorageError):
            store.create_file(3)

    def test_bulk_write_equals_single_writes(self):
        ciphertexts = [bytes([i]) * (16 + i) for i in range(6)]
        leaves = [i % 4 for i in range(6)]
        single, bulk = EncryptedStore(), EncryptedStore()
        for ciphertext, leaf in zip(ciphertexts, leaves):
            single.append_columns(3, [ciphertext], [leaf])
        assert bulk.append_columns(3, ciphertexts[:2], leaves[:2]) == 0
        assert bulk.append_columns(3, ciphertexts[2:], leaves[2:]) == 2
        assert list(bulk.scan(3)) == list(single.scan(3))
        assert bulk.read_ordinals(3, [4, 1]) == [ciphertexts[4], ciphertexts[1]]
        for name in ("bytes_written", "write_ops", "total_bytes"):
            assert getattr(bulk, name) == getattr(single, name)
        assert (bulk.bytes_read, bulk.read_ops) == (16 + 4 + 16 + 1, 2)

    def test_bad_ordinal_rejected(self):
        store = EncryptedStore()
        store.append_columns(0, [_ciphertext()], [0])
        for ordinals in ([1], [-1]):
            with pytest.raises(StorageError):
                store.read_ordinals(0, ordinals)

    def test_truncate_then_append_continues_the_offsets(self):
        store = EncryptedStore()
        for size in (10, 20, 30):
            store.append_columns(0, [_ciphertext(size)], [size])
        assert store.truncate_records(0, 1) == 2
        assert store.total_bytes == 10
        assert store.append_columns(0, [_ciphertext(5)], [5]) == 1
        assert store.record_count(0) == 2
        assert store.total_bytes == 15
        assert list(store.scan(0)) == [(10, _ciphertext(10)), (5, _ciphertext(5))]
