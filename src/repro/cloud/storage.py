"""The cloud's encrypted record store.

Arriving ``<leaf offset, e-record>`` pairs are appended to a per-publication
*file* (Section 5.3, Cloud).  A record's address inside its file is its
**arrival ordinal**; the file keeps a publication as two columns — the
ciphertexts as ``bytes`` and their leaf offsets — plus its byte size, not
as one object per record.  The store is in-memory but accounts for bytes
written/read so the simulator and the matching-time experiments
(Figure 15) can charge realistic I/O.

``append_columns`` is the one write; ``read_ordinals`` (the ciphertext
column by ordinal) is what queries and matching read, and ``scan`` walks
a file's ``(leaf, ciphertext)`` pairs in write order.
"""

from __future__ import annotations

import hashlib


class StorageError(KeyError):
    """Raised for reads of unknown files or ordinals."""


class PublicationFile:
    """Append-only storage file holding one publication's records."""

    def __init__(self, file_id: int):
        self.file_id = file_id
        self._ciphertexts: list[bytes] = []
        #: Leaf offsets; ``None`` for a tagged pair, whose leaf the
        #: cloud learns only from the matching table.
        self._leaves: list[int | None] = []
        self._size = 0

    @property
    def size_bytes(self) -> int:
        """Total bytes stored in this file."""
        return self._size

    @property
    def record_count(self) -> int:
        """Number of records in this file."""
        return len(self._ciphertexts)

    def extend(self, ciphertexts, leaves) -> int:
        """Append a run of records (equal-length columns); returns bytes
        written."""
        written = sum(map(len, ciphertexts))
        self._size += written
        self._ciphertexts += ciphertexts
        self._leaves += leaves
        return written

    def ciphertexts(self, ordinals) -> list[bytes]:
        """The ciphertexts at ``ordinals``, no record built."""
        count = len(self._ciphertexts)
        if ordinals and not (0 <= min(ordinals) and max(ordinals) < count):
            raise StorageError(
                f"ordinal outside the {count} records of file {self.file_id}"
            )
        return list(map(self._ciphertexts.__getitem__, ordinals))

    def scan(self):
        """The ``(leaf, ciphertext)`` pairs, in write order."""
        return zip(self._leaves, self._ciphertexts)

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
        self._size -= sum(map(len, self._ciphertexts[count:]))
        del self._ciphertexts[count:]
        del self._leaves[count:]
        return stored - count


class EncryptedStore:
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

    def append_columns(self, file_id: int, ciphertexts, leaves) -> int:
        """Append a run of records — a ciphertext column and a leaf
        column of equal length — to ``file_id`` in order, creating the
        file if needed; returns the ordinal of the first one (the rest
        follow)."""
        handle = self._files.get(file_id)
        if handle is None:
            handle = self.create_file(file_id)
        first = handle.record_count
        self.bytes_written += handle.extend(ciphertexts, leaves)
        self.write_ops += len(ciphertexts)
        return first

    def read_ordinals(self, file_id: int, ordinals) -> list[bytes]:
        """Read the ciphertexts at ``ordinals`` (a sequence), charging the
        I/O counters."""
        ciphertexts = self.file(file_id).ciphertexts(ordinals)
        self.bytes_read += sum(map(len, ciphertexts))
        self.read_ops += len(ciphertexts)
        return ciphertexts

    def scan(self, file_id: int):
        """Iterate the ``(leaf, ciphertext)`` pairs of one file in write
        order (a maintenance walk: no I/O is charged)."""
        return self.file(file_id).scan()

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
    order)`` of ``store``.

    The files half of the cloud-state fingerprint
    (:mod:`repro.benchfab.fingerprint`); each record contributes its
    leaf offset, its length and its ciphertext.
    """
    files = {}
    for file_id in store.file_ids():
        digest = hashlib.sha256()
        for leaf, ciphertext in store.scan(file_id):
            digest.update(leaf.to_bytes(4, "little"))
            digest.update(len(ciphertext).to_bytes(4, "little"))
            digest.update(ciphertext)
        files[file_id] = (store.record_count(file_id), digest.hexdigest())
    return files
