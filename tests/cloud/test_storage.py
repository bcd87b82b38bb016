"""Encrypted store tests."""

import pytest

from repro.cloud.storage import EncryptedStore, PhysicalAddress, StorageError
from repro.records.record import EncryptedRecord


def _record(size: int = 32, fill: int = 0) -> EncryptedRecord:
    return EncryptedRecord(leaf_offset=None, ciphertext=bytes([fill]) * size)


class TestPublicationFile:
    def test_append_returns_sequential_addresses(self):
        store = EncryptedStore()
        first = store.write(0, _record(32))
        second = store.write(0, _record(48))
        assert first == PhysicalAddress(0, 0, 32)
        assert second == PhysicalAddress(0, 32, 48)

    def test_read_back(self):
        store = EncryptedStore()
        record = _record(fill=7)
        address = store.write(0, record)
        assert store.read(address) == record

    def test_read_unknown_offset(self):
        store = EncryptedStore()
        store.write(0, _record())
        with pytest.raises(StorageError):
            store.read(PhysicalAddress(0, 5, 32))

    def test_read_unknown_file(self):
        store = EncryptedStore()
        with pytest.raises(StorageError):
            store.read(PhysicalAddress(9, 0, 32))

    def test_scan_in_write_order(self):
        store = EncryptedStore()
        records = [_record(fill=i) for i in range(5)]
        for record in records:
            store.write(1, record)
        scanned = [record for _, record in store.scan(1)]
        assert scanned == records


class TestEncryptedStore:
    def test_io_accounting(self):
        store = EncryptedStore()
        address = store.write(0, _record(64))
        store.read(address)
        assert store.bytes_written == 64
        assert store.bytes_read == 64
        assert store.write_ops == 1
        assert store.read_ops == 1

    def test_total_bytes_across_files(self):
        store = EncryptedStore()
        store.write(0, _record(10))
        store.write(1, _record(20))
        assert store.total_bytes == 30

    def test_duplicate_file_rejected(self):
        store = EncryptedStore()
        store.create_file(3)
        with pytest.raises(StorageError):
            store.create_file(3)

    def test_bulk_write_equals_single_writes(self):
        records = [
            EncryptedRecord(i, bytes([i]) * (16 + i), tag=i or None, publication=3)
            for i in range(6)
        ]
        single, bulk = EncryptedStore(), EncryptedStore()
        addresses = [single.write(3, record) for record in records]
        assert bulk.write_batch(3, records[:2]) == 0
        assert bulk.write_batch(3, records[2:]) == 2
        assert [bulk.address_of(3, i) for i in range(6)] == addresses
        assert list(bulk.scan(3)) == list(single.scan(3))
        assert bulk.read_ordinals(3, [4, 1]) == [records[4], records[1]]
        for name in ("bytes_written", "write_ops", "total_bytes"):
            assert getattr(bulk, name) == getattr(single, name)
        assert (bulk.bytes_read, bulk.read_ops) == (16 + 4 + 16 + 1, 2)

    def test_bad_ordinal_rejected(self):
        store = EncryptedStore()
        store.write(0, _record())
        for ordinals in ([1], [-1]):
            with pytest.raises(StorageError):
                store.read_ordinals(0, ordinals)
        with pytest.raises(StorageError):
            store.address_of(0, 1)

    def test_truncate_then_append_continues_the_offsets(self):
        store = EncryptedStore()
        for size in (10, 20, 30):
            store.write(0, _record(size))
        assert store.truncate_records(0, 1) == 2
        assert store.total_bytes == 10
        assert store.write(0, _record(5)) == PhysicalAddress(0, 10, 5)
        assert store.record_count(0) == 2

    def test_many_records_binary_search(self):
        store = EncryptedStore()
        addresses = [store.write(0, _record(16 + i % 7)) for i in range(500)]
        for i in (0, 250, 499):
            assert store.read(addresses[i]).ciphertext == _record(
                16 + i % 7
            ).ciphertext
