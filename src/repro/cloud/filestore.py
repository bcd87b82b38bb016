"""File-backed encrypted store.

The in-memory :class:`~repro.cloud.storage.EncryptedStore` models the
cloud's disk with byte accounting; this variant actually writes each
publication to a file on disk — one append-only file per publication, the
record layout being ``length (uint32) | ciphertext`` — so durability,
re-opening, and real read-back I/O can be exercised.  It implements the
same store contract (see :mod:`repro.cloud.storage`), making it a drop-in
for :class:`FresqueCloud`: a record's address inside its file is its
arrival ordinal, resolved through an in-memory column of byte offsets per
open file (rebuilt from the record headers when a file is re-opened).
Only ciphertexts reach the disk, so records read back carry no leaf
offset, tag or publication number.

Durable mode (``durable=True``) adds the crash discipline the plain mode
lacks:

* **atomic create** — a new publication is written to
  ``publication-<id>.dat.tmp`` and only renamed to its final name by
  :meth:`commit` (after fsync), so a half-written publication can never
  be mistaken for a published one.  Leftover ``.tmp`` files found when
  the store re-opens are discarded: the recovered collector replays the
  publication from its journal.
* **fsync on publish** — :meth:`commit` flushes and ``fsync``'s the
  file before the rename, and :meth:`close` syncs dirty handles instead
  of silently dropping buffered tail bytes.
"""

from __future__ import annotations

import os
import pathlib
import struct
from array import array
from itertools import accumulate, chain

from repro.cloud.storage import PhysicalAddress, RecordWrites, StorageError
from repro.records.record import EncryptedRecord

_LENGTH = struct.Struct("<I")


class FileBackedStore(RecordWrites):
    """Encrypted record store persisting to real files.

    Parameters
    ----------
    directory:
        Directory holding one ``publication-<id>.dat`` file per
        publication; created if missing.
    durable:
        Enable the atomic-create + fsync-on-publish discipline.  Opening
        a durable store discards uncommitted ``.tmp`` publications left
        by a crash.
    """

    def __init__(self, directory: str | pathlib.Path, *, durable: bool = False):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        self._handles: dict[int, object] = {}
        self._sizes: dict[int, int] = {}
        #: Byte offset of every record header, by arrival ordinal.
        self._offsets: dict[int, array] = {}
        #: File ids written since their last flush-to-disk.
        self._dirty: set[int] = set()
        #: File ids still living under their ``.tmp`` create path.
        self._uncommitted: set[int] = set()
        self.bytes_written = 0
        self.bytes_read = 0
        self.write_ops = 0
        self.read_ops = 0
        self.discarded_tmp_files = 0
        if durable:
            for stale in self.directory.glob("publication-*.dat.tmp"):
                stale.unlink()
                self.discarded_tmp_files += 1

    def _path(self, file_id: int) -> pathlib.Path:
        return self.directory / f"publication-{file_id}.dat"

    def _tmp_path(self, file_id: int) -> pathlib.Path:
        return self.directory / f"publication-{file_id}.dat.tmp"

    def create_file(self, file_id: int) -> None:
        """Open a fresh publication file.

        In durable mode the file is created under its ``.tmp`` name and
        only reaches the final name via :meth:`commit`.

        Raises
        ------
        StorageError
            If the publication file already exists.
        """
        if file_id in self._handles or self._path(file_id).exists():
            raise StorageError(f"file {file_id} already exists")
        if self.durable:
            self._uncommitted.add(file_id)
            path = self._tmp_path(file_id)
        else:
            path = self._path(file_id)
        self._handles[file_id] = open(path, "w+b")
        self._sizes[file_id] = 0
        self._offsets[file_id] = array("q")

    def _handle(self, file_id: int):
        handle = self._handles.get(file_id)
        if handle is None:
            path = self._path(file_id)
            if not path.exists():
                raise StorageError(f"no file {file_id}")
            handle = open(path, "r+b")
            size = path.stat().st_size
            # Rebuild the offset column from the record headers.
            offsets = array("q")
            offset = 0
            while offset < size:
                offsets.append(offset)
                offset += _LENGTH.size + self._length_at(handle, offset)
            self._handles[file_id] = handle
            self._sizes[file_id] = size
            self._offsets[file_id] = offsets
        return handle

    @staticmethod
    def _length_at(handle, offset: int) -> int:
        """The body length in the record header at ``offset``."""
        handle.seek(offset)
        header = handle.read(_LENGTH.size)
        if len(header) != _LENGTH.size:
            raise StorageError(f"no record at offset {offset}")
        return _LENGTH.unpack(header)[0]

    def _body(self, handle, offset: int) -> bytes:
        """The ciphertext whose record header sits at ``offset``."""
        length = self._length_at(handle, offset)
        ciphertext = handle.read(length)
        if len(ciphertext) != length:
            raise StorageError("truncated record body")
        return ciphertext

    def file_ids(self) -> list[int]:
        """Ids of every publication file, open or on disk, ascending."""
        on_disk = {
            int(path.stem.partition("-")[2])
            for path in self.directory.glob("publication-*.dat")
        }
        return sorted(on_disk.union(self._handles))

    def record_count(self, file_id: int) -> int:
        """Records stored in ``file_id``."""
        self._handle(file_id)
        return len(self._offsets[file_id])

    def append_columns(self, file_id: int, ciphertexts, *_) -> int:
        """Append ``ciphertexts`` (a sequence) to ``file_id`` in order with
        one write, creating the file if needed; returns the ordinal of
        the first one (the rest follow).  The store contract's other
        columns are dropped: only ciphertexts reach the disk."""
        if file_id not in self._handles and not self._path(file_id).exists():
            self.create_file(file_id)
        handle = self._handle(file_id)
        offsets = self._offsets[file_id]
        first = len(offsets)
        start = self._sizes[file_id]
        lengths = [len(ciphertext) for ciphertext in ciphertexts]
        # Running header offsets of the batch; the last one is the new size.
        ends = list(
            accumulate(
                lengths,
                lambda end, length: end + _LENGTH.size + length,
                initial=start,
            )
        )
        self._sizes[file_id] = ends.pop()
        offsets.extend(ends)
        handle.seek(start)
        handle.write(
            b"".join(
                chain.from_iterable(
                    zip(map(_LENGTH.pack, lengths), ciphertexts)
                )
            )
        )
        self._dirty.add(file_id)
        self.bytes_written += sum(lengths)
        self.write_ops += len(lengths)
        return first

    def address_of(self, file_id: int, ordinal: int) -> PhysicalAddress:
        """The physical address of the ``ordinal``-th record of ``file_id``."""
        self._handle(file_id)
        offsets = self._offsets[file_id]
        if not 0 <= ordinal < len(offsets):
            raise StorageError(f"no record {ordinal} in file {file_id}")
        offset = offsets[ordinal]
        end = (
            offsets[ordinal + 1]
            if ordinal + 1 < len(offsets)
            else self._sizes[file_id]
        )
        return PhysicalAddress(file_id, offset, end - offset - _LENGTH.size)

    def commit(self, file_id: int) -> None:
        """Make one publication file crash-proof (durable mode).

        Flush + fsync the handle; if the file was created in this
        process, atomically rename it from ``.tmp`` to its final name
        and fsync the directory so the rename itself is durable.  A
        replayed publication therefore either fully exists under its
        final name or not at all — never as a torn hybrid.
        """
        handle = self._handle(file_id)
        handle.flush()
        if not self.durable:
            return
        os.fsync(handle.fileno())
        self._dirty.discard(file_id)
        if file_id in self._uncommitted:
            os.replace(self._tmp_path(file_id), self._path(file_id))
            directory = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
            self._uncommitted.discard(file_id)

    def discard_file(self, file_id: int) -> None:
        """Drop one publication file entirely (crash-recovery replay)."""
        handle = self._handles.pop(file_id, None)
        if handle is not None:
            handle.close()
        self._sizes.pop(file_id, None)
        self._offsets.pop(file_id, None)
        self._dirty.discard(file_id)
        for path in (self._tmp_path(file_id), self._path(file_id)):
            if path.exists():
                path.unlink()
        self._uncommitted.discard(file_id)

    def truncate_records(self, file_id: int, count: int) -> int:
        """Trim ``file_id`` to its first ``count`` records.

        Returns the number of records dropped.
        """
        handle = self._handle(file_id)
        offsets = self._offsets[file_id]
        stored = len(offsets)
        if count < 0 or count > stored:
            raise StorageError(
                f"cannot truncate file {file_id} to {count} records: "
                f"only {stored} stored"
            )
        if count < stored:
            handle.flush()
            handle.truncate(offsets[count])
            self._sizes[file_id] = offsets[count]
            del offsets[count:]
            self._dirty.add(file_id)
        return stored - count

    def read_ordinals(self, file_id: int, ordinals) -> list[bytes]:
        """Read the ciphertexts at ``ordinals`` (a sequence) back from
        disk, charging the I/O counters."""
        handle = self._handle(file_id)
        offsets = self._offsets[file_id]
        count = len(offsets)
        if ordinals and not (0 <= min(ordinals) and max(ordinals) < count):
            raise StorageError(
                f"ordinal outside the {count} records of file {file_id}"
            )
        ciphertexts = [self._body(handle, offsets[i]) for i in ordinals]
        self.bytes_read += sum(map(len, ciphertexts))
        self.read_ops += len(ciphertexts)
        return ciphertexts

    def read(self, address: PhysicalAddress) -> EncryptedRecord:
        """Read one record back from disk.

        Raises
        ------
        StorageError
            If the address does not point at a valid record header.
        """
        ciphertext = self._body(self._handle(address.file_id), address.offset)
        if len(ciphertext) != address.length:
            raise StorageError(
                f"length mismatch at {address.offset}: stored "
                f"{len(ciphertext)}, address says {address.length}"
            )
        self.bytes_read += address.length
        self.read_ops += 1
        return EncryptedRecord(leaf_offset=None, ciphertext=ciphertext)

    def scan(self, file_id: int):
        """Iterate ``(address, record)`` pairs of one publication file
        (a maintenance walk: no I/O is charged)."""
        handle = self._handle(file_id)
        for offset in self._offsets[file_id]:
            ciphertext = self._body(handle, offset)
            yield (
                PhysicalAddress(file_id, offset, len(ciphertext)),
                EncryptedRecord(leaf_offset=None, ciphertext=ciphertext),
            )

    def file_size(self, file_id: int) -> int:
        """Bytes currently in one publication file."""
        if file_id not in self._sizes:
            raise StorageError(f"no file {file_id}")
        return self._sizes[file_id]

    @property
    def total_bytes(self) -> int:
        """Payload bytes across all files."""
        return self.bytes_written

    def close(self) -> None:
        """Close every open file handle.

        Dirty handles are flushed first (and fsync'd in durable mode) so
        closing can never lose tail bytes that :meth:`write` reported as
        stored.
        """
        for file_id, handle in self._handles.items():
            if file_id in self._dirty:
                handle.flush()
                if self.durable:
                    os.fsync(handle.fileno())
            handle.close()
        self._handles.clear()
        self._dirty.clear()

    def __enter__(self) -> "FileBackedStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
