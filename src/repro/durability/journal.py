"""The collector's write-ahead journal.

An append-only file of length-prefixed, CRC-framed records — the same
``length (uint32 LE)`` prefix as the TCP transport's
:mod:`~repro.runtime.wire` framing, extended with a ``crc32 (uint32 LE)``
of the payload so a torn or bit-flipped tail can never replay as a
silently corrupt record.

Frame layout::

    length (uint32 LE) | crc32 (uint32 LE) | payload (utf-8 JSON)

Durability discipline (mirrors :class:`~repro.runtime.tcp.TornFrame`
semantics):

* an *incomplete* trailing frame — the classic torn write of a crash —
  is truncated away when the journal is opened;
* a *complete* frame whose CRC does not match raises
  :class:`JournalCorrupt`: silent loss in the middle of the journal is a
  disk fault, not a crash artefact, and replaying past it could drop
  records without a trace.

Appends reach the OS on every record (the handle is unbuffered), so a
*process* crash loses nothing; ``fsync`` — which bounds loss on a
*power* failure — is batched every ``sync_every`` *appends* (frames) and
forced at publication boundaries by the caller.  A ``rawb`` chunk is one
append however many lines it holds, so the power-loss window is up to
``sync_every`` chunks: ``sync_every * batch_size`` records on the
batched paths (65,536 at the defaults of 256 and 256), ``sync_every``
records when every line is its own chunk.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.index.perturb import NoisePlan
from repro.records.codec import decode_plan, encode_plan

_HEADER = struct.Struct("<II")  # length, crc32

#: C-accelerated string escaper; ``json.loads`` reads its output back
#: verbatim, so the hot raw-line path can skip the dict encoder.
_encode_json_str = json.encoder.encode_basestring_ascii

#: Upper bound on one journal payload (same guard as the wire framing).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

#: Journal record types, in lifecycle order.  ``rawb`` holds the raw
#: lines of one ingested chunk — a dispatcher batch, or a single line.
OPEN, RAW_BATCH, CLOSE, COMMIT = "open", "rawb", "close", "commit"


class JournalError(RuntimeError):
    """Raised for malformed journal operations."""


class JournalCorrupt(JournalError):
    """A complete frame failed its CRC — the journal needs intervention."""


@dataclass(frozen=True)
class JournalRecord:
    """One replayed journal entry.

    Parameters
    ----------
    seq:
        Monotonic sequence number (0-based position in the journal).
    type:
        One of ``open`` / ``rawb`` / ``close`` / ``commit``.
    publication:
        The publication the entry belongs to.
    lines:
        The raw ingested lines of one chunk, in arrival order (``rawb``
        entries only).
    plan:
        The publication's noise plan (``open`` entries only) — replay
        must reuse it so the dummy counts and the spent ε of the rebuilt
        publication match the original exactly.
    epsilon:
        The ε granted to the publication (``open`` entries only).
    """

    seq: int
    type: str
    publication: int
    lines: tuple[str, ...] | None = None
    plan: NoisePlan | None = None
    epsilon: float | None = None


def _frame(payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise JournalError(
            f"journal payload of {len(payload)} bytes exceeds the maximum"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_frames(data: bytes) -> tuple[list[bytes], int]:
    """Split ``data`` into complete, CRC-valid payloads.

    Returns ``(payloads, valid_bytes)`` where ``valid_bytes`` is the
    offset of the first incomplete (torn) frame — the truncation point.

    Raises
    ------
    JournalCorrupt
        If a *complete* frame fails its CRC check.
    """
    payloads: list[bytes] = []
    offset = 0
    while len(data) - offset >= _HEADER.size:
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_PAYLOAD_BYTES:
            # A torn header can masquerade as a huge length; a complete
            # frame never announces more than the cap, so treat it as
            # corruption rather than waiting for bytes that cannot come.
            raise JournalCorrupt(
                f"frame at offset {offset} announces {length} bytes"
            )
        body_start = offset + _HEADER.size
        if len(data) - body_start < length:
            break  # torn tail: truncate here
        payload = data[body_start : body_start + length]
        if zlib.crc32(payload) != crc:
            raise JournalCorrupt(f"CRC mismatch at offset {offset}")
        payloads.append(payload)
        offset = body_start + length
    return payloads, offset


class WriteAheadJournal:
    """Append-only journal of collector ingestion events.

    Parameters
    ----------
    path:
        Journal file; created if missing.  Opening an existing journal
        truncates a torn tail and positions appends after the last valid
        frame.
    sync_every:
        ``fsync`` cadence in appends (frames), not records: a ``rawb``
        chunk of any number of lines takes one slot, so up to
        ``sync_every`` chunks — ``sync_every * batch_size`` records —
        can be lost to a power failure.  ``0`` means only explicit
        :meth:`sync` calls (publication boundaries) reach the platter.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; feeds the
        ``durability_journal_bytes`` / ``durability_journal_records``
        counters.
    """

    def __init__(self, path, *, sync_every: int = 256, telemetry=None):
        from repro.telemetry.context import coalesce

        self.path = pathlib.Path(path)
        self.sync_every = sync_every
        self._tel = coalesce(telemetry)
        self._bytes_counter = self._tel.counter("durability_journal_bytes")
        self._records_counter = self._tel.counter("durability_journal_records")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._entries, _ = self._recover()
        self._unsynced = 0
        # Telemetry is batched off the hot path: raw appends accumulate
        # into plain ints, flushed to the counters at every sync point.
        self._pending_bytes = 0
        self._pending_records = 0
        # Unbuffered: each append is one write(2) straight to the OS page
        # cache — the process-crash guarantee — without a userspace
        # buffer to flush on the ingest critical path.
        self._handle = open(self.path, "ab", buffering=0)

    def _recover(self) -> tuple[int, int]:
        """Truncate a torn tail; return (valid frames, valid bytes)."""
        if not self.path.exists():
            self.path.touch()
            return 0, 0
        data = self.path.read_bytes()
        payloads, valid = scan_frames(data)
        if valid < len(data):
            with open(self.path, "r+b") as handle:
                handle.truncate(valid)
                handle.flush()
                os.fsync(handle.fileno())
        return len(payloads), valid

    # -- appending -------------------------------------------------------

    @property
    def entries(self) -> int:
        """Number of valid records in the journal."""
        return self._entries

    @property
    def byte_size(self) -> int:
        """Current journal size in bytes."""
        return self._handle.tell()

    def _append(self, entry: dict, *, sync: bool) -> int:
        return self._append_payload(
            json.dumps(entry, separators=(",", ":")).encode("utf-8"),
            sync=sync,
        )

    def _append_payload(self, payload: bytes, *, sync: bool) -> int:
        frame = _frame(payload)
        # One unbuffered write reaches the OS page cache, so the record
        # survives a process crash; fsync (batched) bounds the
        # power-failure window.
        self._handle.write(frame)
        seq = self._entries
        self._entries += 1
        self._unsynced += 1
        self._pending_bytes += len(frame)
        self._pending_records += 1
        if sync or (self.sync_every and self._unsynced >= self.sync_every):
            self.sync()
        return seq

    def append_open(
        self, publication: int, plan: NoisePlan, epsilon: float
    ) -> int:
        """Journal a publication opening (plan included, for replay)."""
        return self._append(
            {
                "t": OPEN,
                "pub": publication,
                "plan": encode_plan(plan),
                "eps": epsilon,
            },
            sync=True,
        )

    def append_raw_batch(self, publication: int, lines) -> int:
        """Journal raw lines as a single frame *before* any is dispatched.

        The one raw-line append, for a dispatcher batch and for a single
        line alike: hand-rolled JSON (escaped through the stdlib's C
        escaper) keeps the journal off the ingest critical path's
        profile, and the whole chunk shares one ``write(2)`` (and one
        fsync-cadence slot).
        """
        payload = (
            '{"t":"rawb","pub":%d,"lines":[%s]}'
            % (publication, ",".join(map(_encode_json_str, lines)))
        ).encode("utf-8")
        return self._append_payload(payload, sync=False)

    def append_close(self, publication: int) -> int:
        """Journal the end of a publication interval."""
        return self._append({"t": CLOSE, "pub": publication}, sync=True)

    def append_commit(self, publication: int) -> int:
        """Journal that the cloud acknowledged the full publication."""
        return self._append({"t": COMMIT, "pub": publication}, sync=True)

    def sync(self) -> None:
        """Force everything appended so far onto the platter."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._unsynced = 0
        self._flush_metrics()

    def _flush_metrics(self) -> None:
        if self._pending_records:
            self._bytes_counter.inc(self._pending_bytes)
            self._records_counter.inc(self._pending_records)
            self._pending_bytes = 0
            self._pending_records = 0

    # -- replay ----------------------------------------------------------

    def replay(self, after_seq: int = -1) -> Iterator[JournalRecord]:
        """Yield journal records with ``seq > after_seq``, oldest first."""
        self._handle.flush()
        payloads, _ = scan_frames(self.path.read_bytes())
        for seq, payload in enumerate(payloads):
            if seq <= after_seq:
                continue
            try:
                entry = json.loads(payload.decode("utf-8"))
                kind = entry["t"]
                publication = entry["pub"]
            except (KeyError, ValueError) as exc:
                raise JournalCorrupt(f"malformed journal entry: {exc}") from exc
            lines = entry.get("lines")
            yield JournalRecord(
                seq=seq,
                type=kind,
                publication=publication,
                lines=None if lines is None else tuple(lines),
                plan=(
                    decode_plan(entry["plan"]) if kind == OPEN else None
                ),
                epsilon=entry.get("eps"),
            )

    def close(self) -> None:
        """Sync and close the append handle."""
        self.sync()
        self._handle.close()

    def __enter__(self) -> "WriteAheadJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
