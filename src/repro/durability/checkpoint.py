"""Atomic collector checkpoints.

A checkpoint captures the collector's progress at a quiescent point
(between pump steps of the synchronous driver): the journal watermark,
the dispatcher/checking/merger per-publication snapshots, and the number
of pairs already delivered to the cloud per open publication.  Recovery
loads the newest readable checkpoint and replays the journal suffix past
its watermark.

One checkpoint is one file of CRC-framed parts (:data:`FORMAT` 8)::

    length (u32 LE) | crc32 (u32 LE) | manifest (utf-8 JSON)
    length (u32 LE) | crc32 (u32 LE) | section 0
    ...

The manifest is the document — ``{"checkpoint", "format", "sections",
"state"}`` — with every ``bytes`` value of the state's dicts (the packed pair
columns of the randomer residents and the merger's removed records, the
dispatcher's dummy-schedule columns) replaced by ``{"$section": i}``
and written raw as section ``i``: no base64, no JSON escaping of binary.

Every write is crash-atomic: the file goes to a temporary name in the
same directory, is flushed and ``fsync``'d, and only then renamed over
the final name (``os.replace``), followed by a directory fsync so the
rename itself is durable.  A crash mid-write leaves either the old
checkpoint or the new one — never a torn hybrid.  Each save also writes
a fresh numbered file, so even a torn write could not destroy the
previous checkpoint: :meth:`CheckpointStore.latest` skips it.

A file that does not decode as format 8 — torn, bit-flipped, truncated,
with trailing bytes, a JSON document of formats 1–5 (base64 columns
inside one JSON object), a format-6 file (the same framing, its
dispatcher's in-flight dummies JSON records, its merger state with an
early-removed buffer) or a format-7 file (no ``next_seq`` in its
checking state) — is skipped exactly like a torn one.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import zlib

#: The checkpoint format this code writes, and the only one it restores.
FORMAT = 8

_HEADER = struct.Struct("<II")  # length, crc32
_SECTION = "$section"


class CheckpointError(ValueError):
    """A checkpoint file that is not a readable format-8 checkpoint."""


def _lift(value, sections: list):
    """``value`` with every ``bytes`` among its dicts' values moved into
    ``sections`` (lists are JSON as they stand)."""
    if isinstance(value, dict):
        return {key: _lift(item, sections) for key, item in value.items()}
    if isinstance(value, (bytes, bytearray)):
        sections.append(value)
        return {_SECTION: len(sections) - 1}
    return value


def _lower(value, sections: list):
    """Inverse of :func:`_lift`."""
    if isinstance(value, dict):
        if len(value) == 1 and _SECTION in value:
            return sections[value[_SECTION]]
        return {key: _lower(item, sections) for key, item in value.items()}
    return value


def encode_checkpoint(document: dict) -> bytes:
    """One checkpoint file's bytes: the framed manifest, then the framed
    sections its ``bytes`` values were lifted into."""
    sections: list = []
    manifest = _lift(document, sections)
    manifest["sections"] = len(sections)
    chunks = []
    for part in (
        json.dumps(manifest, separators=(",", ":")).encode("utf-8"),
        *sections,
    ):
        chunks += (_HEADER.pack(len(part), zlib.crc32(part)), part)
    return b"".join(chunks)


def decode_checkpoint(data) -> dict:
    """Inverse of :func:`encode_checkpoint`; anything but a whole,
    CRC-valid format-8 file is a :class:`CheckpointError`."""
    view = memoryview(data)
    parts = []
    offset = 0
    expected = 1
    while len(parts) < expected:
        if len(view) - offset < _HEADER.size:
            raise CheckpointError(f"truncated at byte {offset}")
        length, crc = _HEADER.unpack_from(view, offset)
        start = offset + _HEADER.size
        offset = start + length
        if offset > len(view):
            raise CheckpointError(f"part at byte {start} is truncated")
        part = view[start:offset]
        if zlib.crc32(part) != crc:
            raise CheckpointError(f"CRC mismatch in the part at byte {start}")
        if not parts:
            try:
                manifest = json.loads(bytes(part))
                if manifest["format"] != FORMAT:
                    raise CheckpointError(f"format {manifest['format']!r}")
                expected = 1 + manifest["sections"]
            except (ValueError, LookupError, TypeError) as exc:
                raise CheckpointError(f"unreadable manifest: {exc}") from exc
            parts.append(manifest)
        else:
            parts.append(bytes(part))
    if offset != len(view):
        raise CheckpointError(f"{len(view) - offset} trailing bytes")
    manifest = parts[0]
    del manifest["sections"]
    try:
        return _lower(manifest, parts[1:])
    except (LookupError, TypeError) as exc:
        raise CheckpointError(f"bad section reference: {exc}") from exc


def atomic_write_bytes(path, data: bytes) -> pathlib.Path:
    """Write ``data`` to ``path`` via write-temp + fsync + rename."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return path


class CheckpointStore:
    """Numbered checkpoint files in one directory.

    Parameters
    ----------
    directory:
        Where ``checkpoint-<n>.ckpt`` files live; created if missing.
    """

    #: Checkpoints retained after each save: the newest, and the one
    #: :meth:`latest` falls back to when the newest is unreadable.
    KEEP = 2

    def __init__(self, directory):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._next = 1 + max(
            (number for number, _ in self._existing()), default=-1
        )

    def _existing(self) -> list[tuple[int, pathlib.Path]]:
        found = []
        for path in self.directory.glob("checkpoint-*.ckpt"):
            stem = path.stem.rsplit("-", 1)[-1]
            if stem.isdigit():
                found.append((int(stem), path))
        return sorted(found)

    def save(self, state: dict) -> pathlib.Path:
        """Persist one checkpoint atomically; prune old ones."""
        number = self._next
        self._next += 1
        path = atomic_write_bytes(
            self.directory / f"checkpoint-{number:08d}.ckpt",
            encode_checkpoint(
                {"checkpoint": number, "format": FORMAT, "state": state}
            ),
        )
        for _, old in self._existing()[: -self.KEEP]:
            old.unlink()
        return path

    def read(self, path) -> dict:
        """The whole document of one checkpoint file (``checkpoint``,
        ``format``, ``state``); :class:`CheckpointError` if it is not a
        readable format-8 checkpoint."""
        return decode_checkpoint(pathlib.Path(path).read_bytes())

    def latest(self) -> dict | None:
        """The newest *readable* checkpoint's state, or ``None``.

        An unreadable newest file (torn by a crash outside the atomic
        writer, bit-flipped, or written in another :data:`FORMAT` by an
        older collector) is skipped in favour of the previous one —
        recovery then simply replays a longer journal suffix.
        """
        for _, path in reversed(self._existing()):
            try:
                return self.read(path)["state"]
            except (CheckpointError, OSError, LookupError, TypeError):
                continue
        return None
