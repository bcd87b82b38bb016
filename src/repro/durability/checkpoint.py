"""Atomic collector checkpoints.

A checkpoint is one JSON document capturing the collector's progress at a
quiescent point (between pump steps of the synchronous driver): the
journal watermark, the dispatcher/checking/merger per-publication
snapshots, and the number of pairs already delivered to the cloud per
open publication.  Recovery loads the newest readable checkpoint and
replays the journal suffix past its watermark.

Every write is crash-atomic: the document goes to a temporary file in
the same directory, is flushed and ``fsync``'d, and only then renamed
over the final name (``os.replace``), followed by a directory fsync so
the rename itself is durable.  A crash mid-write leaves either the old
checkpoint or the new one — never a torn hybrid (the ``FRQ-D702`` lint
rule keeps this the only write path).

Documents are stamped with :data:`FORMAT`: 3 keeps the randomer residents
and the merger's removed records as base64 strings of packed columns
(``records.codec.encode_pairs``), 2 kept the removed records as a JSON
object each, 1 (unstamped) the residents too.  A document of any other
format is skipped exactly like a torn one.
"""

from __future__ import annotations

import json
import os
import pathlib

#: The document format this code writes, and the only one it restores.
FORMAT = 3


def atomic_write_json(path, payload: dict) -> pathlib.Path:
    """Write ``payload`` to ``path`` via write-temp + fsync + rename."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
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
    """Numbered checkpoint documents in one directory.

    Parameters
    ----------
    directory:
        Where ``checkpoint-<n>.json`` files live; created if missing.
    keep:
        How many past checkpoints to retain (older ones are pruned after
        each save; at least 1).
    """

    def __init__(self, directory, *, keep: int = 2):
        if keep < 1:
            raise ValueError(f"keep must be at least 1, got {keep}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self._next = 1 + max(
            (number for number, _ in self._existing()), default=-1
        )

    def _existing(self) -> list[tuple[int, pathlib.Path]]:
        found = []
        for path in self.directory.glob("checkpoint-*.json"):
            stem = path.stem.rsplit("-", 1)[-1]
            if stem.isdigit():
                found.append((int(stem), path))
        return sorted(found)

    def save(self, state: dict) -> pathlib.Path:
        """Persist one checkpoint document atomically; prune old ones."""
        number = self._next
        self._next += 1
        path = atomic_write_json(
            self.directory / f"checkpoint-{number:08d}.json",
            {"checkpoint": number, "format": FORMAT, "state": state},
        )
        for _, old in self._existing()[: -self.keep]:
            old.unlink()
        return path

    def latest(self) -> dict | None:
        """The newest *readable* checkpoint's state, or ``None``.

        An unreadable newest file (torn by a crash outside the atomic
        writer, hand-edited into another shape, or written in another
        :data:`FORMAT` by an older collector) is skipped in favour of the
        previous one — recovery then simply replays a longer journal suffix.
        """
        for _, path in reversed(self._existing()):
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
                if document["format"] == FORMAT:
                    return document["state"]
            except (ValueError, LookupError, TypeError, OSError):
                continue
        return None
