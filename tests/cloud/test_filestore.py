"""File-backed store tests (real disk I/O)."""

import pytest

from repro.cloud.filestore import FileBackedStore
from repro.cloud.storage import PhysicalAddress, StorageError
from repro.records.record import EncryptedRecord


def _record(fill: int, size: int = 48) -> EncryptedRecord:
    return EncryptedRecord(leaf_offset=None, ciphertext=bytes([fill]) * size)


class TestFileBackedStore:
    def test_write_read_roundtrip(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            address = store.write(0, _record(7))
            assert store.read(address).ciphertext == _record(7).ciphertext

    def test_addresses_are_physical_offsets(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            first = store.write(0, _record(1, size=10))
            second = store.write(0, _record(2, size=20))
            assert first.offset == 0
            assert second.offset == 4 + 10  # header + first body

    def test_data_survives_reopen(self, tmp_path):
        store = FileBackedStore(tmp_path)
        address = store.write(3, _record(9))
        store.close()
        reopened = FileBackedStore(tmp_path)
        assert reopened.read(address).ciphertext == _record(9).ciphertext
        reopened.close()

    def test_duplicate_create_rejected(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            store.create_file(0)
            with pytest.raises(StorageError):
                store.create_file(0)

    def test_unknown_file_rejected(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            with pytest.raises(StorageError):
                store.read(PhysicalAddress(9, 0, 48))

    def test_bad_offset_rejected(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            store.write(0, _record(1))
            with pytest.raises(StorageError):
                store.read(PhysicalAddress(0, 3, 48))

    def test_scan_in_order(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            for fill in range(5):
                store.write(0, _record(fill))
            scanned = [record.ciphertext[0] for _, record in store.scan(0)]
            assert scanned == [0, 1, 2, 3, 4]

    def test_io_accounting(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            address = store.write(0, _record(1, size=64))
            store.read(address)
            assert store.bytes_written == 64
            assert store.bytes_read == 64
            assert store.file_size(0) == 4 + 64

    def test_bulk_write_equals_single_writes(self, tmp_path):
        records = [_record(fill, size=10 + fill) for fill in range(6)]
        with FileBackedStore(tmp_path / "single") as single:
            addresses = [single.write(0, record) for record in records]
        with FileBackedStore(tmp_path / "bulk") as bulk:
            assert bulk.write_batch(0, records[:2]) == 0
            assert bulk.write_batch(0, records[2:]) == 2
            assert [bulk.address_of(0, i) for i in range(6)] == addresses
            assert (bulk.bytes_written, bulk.write_ops) == (
                single.bytes_written, single.write_ops
            )
            assert bulk.read_ordinals(0, [4, 1]) == [
                records[4].ciphertext, records[1].ciphertext
            ]
            assert (bulk.bytes_read, bulk.read_ops) == (14 + 11, 2)
        assert (tmp_path / "bulk" / "publication-0.dat").read_bytes() == (
            tmp_path / "single" / "publication-0.dat"
        ).read_bytes()

    def test_ordinals_survive_reopen(self, tmp_path):
        """The offset column is rebuilt from the record headers."""
        with FileBackedStore(tmp_path) as store:
            store.write_batch(2, [_record(fill, size=5 + fill) for fill in range(4)])
        with FileBackedStore(tmp_path) as reopened:
            assert reopened.file_ids() == [2]
            assert reopened.record_count(2) == 4
            assert reopened.address_of(2, 3).length == 8
            assert reopened.read_ordinals(2, [2]) == [
                _record(2, size=7).ciphertext
            ]
            assert reopened.write_batch(2, [_record(9)]) == 4

    def test_bad_ordinal_rejected(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            store.write(0, _record(1))
            for ordinals in ([1], [-1]):
                with pytest.raises(StorageError):
                    store.read_ordinals(0, ordinals)

    def test_per_publication_files_on_disk(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            store.write(0, _record(1))
            store.write(1, _record(2))
        assert (tmp_path / "publication-0.dat").exists()
        assert (tmp_path / "publication-1.dat").exists()


class TestDurableMode:
    def test_uncommitted_file_lives_under_tmp_name(self, tmp_path):
        with FileBackedStore(tmp_path, durable=True) as store:
            store.write(0, _record(1))
            assert (tmp_path / "publication-0.dat.tmp").exists()
            assert not (tmp_path / "publication-0.dat").exists()

    def test_commit_renames_and_survives_reopen(self, tmp_path):
        store = FileBackedStore(tmp_path, durable=True)
        address = store.write(0, _record(7))
        store.commit(0)
        store.close()
        assert (tmp_path / "publication-0.dat").exists()
        with FileBackedStore(tmp_path, durable=True) as reopened:
            assert reopened.read(address).ciphertext == _record(7).ciphertext
            assert reopened.discarded_tmp_files == 0

    def test_crash_regression_uncommitted_file_discarded_on_reopen(
        self, tmp_path
    ):
        """Crash before commit: the half-written publication must not be
        mistaken for a published one, and its id must be reusable by the
        recovery replay."""
        store = FileBackedStore(tmp_path, durable=True)
        store.write(0, _record(1))
        store.write(0, _record(2))
        # Simulated crash: no commit, no close.
        reopened = FileBackedStore(tmp_path, durable=True)
        assert reopened.discarded_tmp_files == 1
        assert list(tmp_path.glob("publication-0.dat*")) == []
        reopened.create_file(0)  # replay re-creates the publication
        reopened.write(0, _record(3))
        reopened.commit(0)
        reopened.close()
        assert (tmp_path / "publication-0.dat").exists()

    def test_close_flushes_dirty_handles(self, tmp_path):
        store = FileBackedStore(tmp_path, durable=True)
        store.write(0, _record(5, size=128))
        store.commit(0)
        store.write(0, _record(6, size=128))  # dirty again after commit
        store.close()
        with FileBackedStore(tmp_path, durable=True) as reopened:
            assert sum(1 for _ in reopened.scan(0)) == 2

    def test_discard_file_removes_both_paths(self, tmp_path):
        with FileBackedStore(tmp_path, durable=True) as store:
            store.write(0, _record(1))
            store.discard_file(0)
            assert list(tmp_path.glob("publication-0.dat*")) == []
            store.create_file(0)  # id usable again

    def test_truncate_records(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            for fill in range(5):
                store.write(0, _record(fill))
            dropped = store.truncate_records(0, 2)
            assert dropped == 3
            assert [r.ciphertext[0] for _, r in store.scan(0)] == [0, 1]
            # Appends continue cleanly after the truncation point.
            store.write(0, _record(9))
            assert [r.ciphertext[0] for _, r in store.scan(0)] == [0, 1, 9]

    def test_truncate_beyond_contents_rejected(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            store.write(0, _record(1))
            with pytest.raises(StorageError):
                store.truncate_records(0, 5)

    def test_commit_without_durable_is_a_flush(self, tmp_path):
        with FileBackedStore(tmp_path) as store:
            store.write(0, _record(1))
            store.commit(0)  # no rename: plain mode creates final names
            assert (tmp_path / "publication-0.dat").exists()


class TestDropInForCloud:
    def test_fresque_cloud_runs_on_real_files(self, tmp_path, flu_config,
                                              fast_cipher):
        """Swap the in-memory store for the file-backed one and run a full
        publication through the cloud node."""
        from repro.cloud.node import FresqueCloud
        from repro.core.system import FresqueSystem

        system = FresqueSystem(flu_config, fast_cipher, seed=31)
        file_store = FileBackedStore(tmp_path)
        # Rebind the cloud's storage and query engine to the real files.
        system.cloud.store = file_store
        system.cloud.engine._store = file_store
        system.start()
        from repro.datasets.flu import FluSurveyGenerator

        lines = list(FluSurveyGenerator(seed=41).raw_lines(300))
        summary = system.run_publication(lines)
        assert summary.published_pairs > 250
        assert file_store.file_size(0) > 0
        result = system.query(340, 420)
        assert len(result.records) > 0.8 * 300
        file_store.close()
