"""The cloud's encrypted record store.

Arriving ``<leaf offset, e-record>`` pairs are appended to a per-publication
*file* (Section 5.3, Cloud).  A record's address inside its file is its
**arrival ordinal**; the file keeps a publication as columns — the
ciphertexts as ``bytes`` plus one int column each for byte offset, leaf
offset, tag and publication — not as one object per record.
:class:`PhysicalAddress` and :class:`EncryptedRecord` are values built on
demand by ``write`` / ``read`` / ``scan``, never retained; queries get none.
The store is in-memory but accounts for bytes written/read so the simulator
and the matching-time experiments (Figure 15) can charge realistic I/O.

The store contract, implemented here and by
:class:`~repro.cloud.filestore.FileBackedStore`: ``create_file``,
``append_columns`` (the one write primitive: records as parallel columns,
returns the first ordinal), ``write_batch`` / ``write`` (records in,
:class:`RecordWrites`' adapters over it), ``address_of``, ``read`` (a record
by address), ``read_ordinals`` (the ciphertext column by ordinal, what
queries and matching read), ``scan``, ``record_count``, ``file_ids``,
``truncate_records``, ``discard_file``, ``commit``, ``close`` and
``total_bytes``.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from repro.records.record import EncryptedRecord


@dataclass(frozen=True)
class PhysicalAddress:
    """Disk location of one encrypted record: (file, byte offset)."""

    file_id: int
    offset: int
    length: int


class StorageError(KeyError):
    """Raised for reads of unknown files or addresses."""


class PublicationFile:
    """Append-only storage file holding one publication's records."""

    def __init__(self, file_id: int):
        self.file_id = file_id
        self._ciphertexts: list[bytes] = []
        self._offsets = array("q")
        self._leaves: list[int | None] = []
        self._tags: list[int | None] = []
        self._publications: list[int] = []
        self._size = 0

    @property
    def size_bytes(self) -> int:
        """Total bytes stored in this file."""
        return self._size

    @property
    def record_count(self) -> int:
        """Number of records in this file."""
        return len(self._ciphertexts)

    def extend(self, ciphertexts, leaves, tags, publications) -> int:
        """Append a run of records (equal-length columns); returns bytes
        written."""
        start = self._size
        # Running byte offsets of the batch; the last one is the new size.
        offsets = list(accumulate(map(len, ciphertexts), initial=start))
        self._size = offsets.pop()
        self._offsets.extend(offsets)
        self._ciphertexts += ciphertexts
        self._leaves += leaves
        self._tags += tags
        self._publications += publications
        return self._size - start

    def address_of(self, ordinal: int) -> PhysicalAddress:
        """The physical address of the ``ordinal``-th record written."""
        if not 0 <= ordinal < len(self._ciphertexts):
            raise StorageError(
                f"no record {ordinal} in file {self.file_id}"
            )
        return PhysicalAddress(
            self.file_id, self._offsets[ordinal], len(self._ciphertexts[ordinal])
        )

    def ordinal_of(self, address: PhysicalAddress) -> int:
        """The arrival ordinal of the record stored at ``address``.

        Raises
        ------
        StorageError
            If the address does not identify a stored record.
        """
        if address.file_id != self.file_id:
            raise StorageError(
                f"address file {address.file_id} != file {self.file_id}"
            )
        offsets = self._offsets
        ordinal = bisect_left(offsets, address.offset)
        if ordinal >= len(offsets) or offsets[ordinal] != address.offset:
            raise StorageError(f"no record at offset {address.offset}")
        return ordinal

    def ciphertexts(self, ordinals) -> list[bytes]:
        """The ciphertexts at ``ordinals``, no record built."""
        count = len(self._ciphertexts)
        if ordinals and not (0 <= min(ordinals) and max(ordinals) < count):
            raise StorageError(
                f"ordinal outside the {count} records of file {self.file_id}"
            )
        return list(map(self._ciphertexts.__getitem__, ordinals))

    def records(self, ordinals) -> list[EncryptedRecord]:
        """The records at ``ordinals``, each built from its columns."""
        leaves, tags, publications = self._leaves, self._tags, self._publications
        return [
            EncryptedRecord(leaves[i], ciphertext, tags[i], publications[i])
            for i, ciphertext in zip(ordinals, self.ciphertexts(ordinals))
        ]

    def truncate(self, count: int) -> int:
        """Keep only the first ``count`` records; return records dropped.

        Crash recovery trims an in-flight publication back to the pairs
        covered by the collector's checkpoint, so replayed records append
        without duplication.
        """
        stored = len(self._ciphertexts)
        if count < 0 or count > stored:
            raise StorageError(
                f"cannot truncate file {self.file_id} to {count} of "
                f"{stored} records"
            )
        if count < stored:
            self._size = self._offsets[count]
        for column in (
            self._ciphertexts,
            self._offsets,
            self._leaves,
            self._tags,
            self._publications,
        ):
            del column[count:]
        return stored - count


class RecordWrites:
    """Record-shaped writes, as adapters over ``append_columns(file_id,
    ciphertexts, leaves, tags, publications)`` — the one write primitive
    a store implements."""

    def write_batch(self, file_id: int, records) -> int:
        """Append ``records`` (a sequence) to ``file_id`` in order, creating
        the file if needed; returns the ordinal of the first one (the rest
        follow)."""
        return self.append_columns(
            file_id,
            [record.ciphertext for record in records],
            [record.leaf_offset for record in records],
            [record.tag for record in records],
            [record.publication for record in records],
        )

    def write(self, file_id: int, record: EncryptedRecord) -> PhysicalAddress:
        """Append one record, returning its physical address."""
        return self.address_of(file_id, self.write_batch(file_id, (record,)))


class EncryptedStore(RecordWrites):
    """All publication files at the cloud, plus I/O accounting."""

    def __init__(self):
        self._files: dict[int, PublicationFile] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.write_ops = 0
        self.read_ops = 0

    def create_file(self, file_id: int) -> PublicationFile:
        """Open a fresh file for a new publication.

        Raises
        ------
        StorageError
            If the file id is already in use.
        """
        if file_id in self._files:
            raise StorageError(f"file {file_id} already exists")
        handle = PublicationFile(file_id)
        self._files[file_id] = handle
        return handle

    def file(self, file_id: int) -> PublicationFile:
        """Look up an existing file."""
        if file_id not in self._files:
            raise StorageError(f"no file {file_id}")
        return self._files[file_id]

    def file_ids(self) -> list[int]:
        """Ids of every file the store holds, ascending."""
        return sorted(self._files)

    def record_count(self, file_id: int) -> int:
        """Records stored in ``file_id``."""
        return self.file(file_id).record_count

    def append_columns(self, file_id: int, ciphertexts, *columns) -> int:
        """Append a run of records — ciphertexts, leaves, tags and
        publications: four columns of equal length — to ``file_id`` in
        order, creating the file if needed; returns the ordinal of the
        first one (the rest follow)."""
        handle = self._files.get(file_id)
        if handle is None:
            handle = self.create_file(file_id)
        first = handle.record_count
        self.bytes_written += handle.extend(ciphertexts, *columns)
        self.write_ops += len(ciphertexts)
        return first

    def address_of(self, file_id: int, ordinal: int) -> PhysicalAddress:
        """The physical address of the ``ordinal``-th record of ``file_id``."""
        return self.file(file_id).address_of(ordinal)

    def read_ordinals(self, file_id: int, ordinals) -> list[bytes]:
        """Read the ciphertexts at ``ordinals`` (a sequence), charging the
        I/O counters."""
        ciphertexts = self.file(file_id).ciphertexts(ordinals)
        self.bytes_read += sum(map(len, ciphertexts))
        self.read_ops += len(ciphertexts)
        return ciphertexts

    def read(self, address: PhysicalAddress) -> EncryptedRecord:
        """Read the record at ``address``, charging the I/O counters."""
        ordinals = (self.file(address.file_id).ordinal_of(address),)
        self.read_ordinals(address.file_id, ordinals)
        return self.file(address.file_id).records(ordinals)[0]

    def scan(self, file_id: int):
        """Iterate ``(address, record)`` pairs of one file in write order
        (a maintenance walk: no I/O is charged)."""
        handle = self.file(file_id)
        ordinals = range(handle.record_count)
        for ordinal, record in zip(ordinals, handle.records(ordinals)):
            yield handle.address_of(ordinal), record

    def commit(self, file_id: int) -> None:
        """Nothing to make durable: the in-memory store dies with the
        process (:class:`FileBackedStore` fsyncs and renames here)."""

    def close(self) -> None:
        """No handles to release."""

    def discard_file(self, file_id: int) -> None:
        """Drop ``file_id`` entirely (crash recovery: an uncheckpointed
        in-flight publication is replayed from its journalled start, so
        its partial contents are discarded and the file re-created)."""
        self._files.pop(file_id, None)

    def truncate_records(self, file_id: int, count: int) -> int:
        """Trim ``file_id`` to its first ``count`` records."""
        return self.file(file_id).truncate(count)

    @property
    def total_bytes(self) -> int:
        """Bytes across all files (storage-overhead metric)."""
        return sum(handle.size_bytes for handle in self._files.values())


def file_digests(store) -> dict[int, tuple[int, str]]:
    """``file id -> (record count, sha256 over its records in write
    order)`` of any store, read through its public contract.

    The files half of the cloud-state fingerprint
    (:mod:`repro.benchfab.fingerprint`); each record contributes its
    leaf offset, its length and its ciphertext.
    """
    files = {}
    for file_id in store.file_ids():
        digest = hashlib.sha256()
        for _, record in store.scan(file_id):
            digest.update(record.leaf_offset.to_bytes(4, "little"))
            digest.update(len(record.ciphertext).to_bytes(4, "little"))
            digest.update(record.ciphertext)
        files[file_id] = (store.record_count(file_id), digest.hexdigest())
    return files
