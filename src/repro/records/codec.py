"""Payload codecs for records, pair columns and noise plans.

Shared by the wire format (:mod:`repro.runtime.wire`), the durability
journal and the collector checkpoints — living here, below both the core
pipeline and the runtime, so any layer can serialise records without
importing the transport.

Two codec families:

* JSON-able dicts (``encode_*``/``decode_*``) — every durable artefact
  and the payloads of the wire's JSON control envelope.
* One packed form for a run of ``<leaf offset, e-record>`` pairs held as
  columns (:func:`pack_pairs`/:func:`unpack_pairs`) — the body of every
  pair-carrying frame, on sockets and in rings alike, and (base64'd by
  :func:`encode_pairs`) what a collector checkpoint keeps its randomer
  residents and the merger's removed records as.  Read straight off the
  buffer: one copy per ciphertext.
"""

from __future__ import annotations

import base64
import struct
from itertools import accumulate

from repro.index.perturb import NoisePlan
from repro.records.record import Record


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def encode_plan(plan: NoisePlan) -> dict:
    """Serialise one noise plan as a JSON-able dict."""
    return {
        "noise": [list(level) for level in plan.node_noise],
        "epsilon": plan.epsilon,
        "scale": plan.per_level_scale,
    }


def decode_plan(payload: dict) -> NoisePlan:
    """Inverse of :func:`encode_plan`."""
    return NoisePlan(
        node_noise=tuple(tuple(level) for level in payload["noise"]),
        epsilon=payload["epsilon"],
        per_level_scale=payload["scale"],
    )


def encode_record(record: Record) -> dict:
    """Serialise one plaintext record as a JSON-able dict."""
    return {"values": list(record.values), "flag": record.flag}


def decode_record(payload: dict) -> Record:
    """Inverse of :func:`encode_record`."""
    return Record(tuple(payload["values"]), flag=payload["flag"])


# ---------------------------------------------------------------------------
# Packed pair columns (batch frames and checkpoints)
# ---------------------------------------------------------------------------

_COUNT = struct.Struct("<I")


def pack_pairs(out: bytearray, leaves, ciphertexts, dummies=None) -> None:
    """Append a run of pairs, held as columns, to ``out``::

        count (u32) | leaves (count x i32) | lengths (count x u32)
        | the ciphertexts, joined | dummies (count bytes, where present)

    all little endian.  ``dummies`` is the trusted-side flag column (one
    0/1 byte per pair); cloud-bound runs carry none.  Columns of unequal
    length are a ``ValueError``, a leaf that is no ``i32`` a
    ``struct.error``.
    """
    count = len(leaves)
    flagged = dummies is not None
    if len(ciphertexts) != count or (flagged and len(dummies) != count):
        raise ValueError("pair columns differ in length")
    out += _COUNT.pack(count)
    out += struct.pack(f"<{count}i", *leaves)
    out += struct.pack(f"<{count}I", *map(len, ciphertexts))
    out += b"".join(ciphertexts)
    if flagged:
        out += dummies


def unpack_pairs(view, offset: int = 0, *, dummies: bool = False):
    """Decode one :func:`pack_pairs` run at ``offset`` of ``view`` (a
    buffer): ``(leaves, ciphertexts, dummies or None, end offset)``, the
    columns as tuples and ``dummies`` as ``bytes``.

    ``count`` sizes the leaf, length and flag columns and ``sum(lengths)``
    the ciphertext bytes; a run the buffer cannot hold is a
    ``ValueError``.  Whether it ends where the buffer does is the
    caller's check.
    """
    try:
        (count,) = _COUNT.unpack_from(view, offset)
        leaves = struct.unpack_from(f"<{count}i", view, offset + 4)
        lengths = struct.unpack_from(f"<{count}I", view, offset + 4 + 4 * count)
    except struct.error as exc:
        raise ValueError(f"truncated pair columns: {exc}") from exc
    start = offset + 4 + 8 * count
    ends = list(accumulate(lengths, initial=0))
    flags_at = start + ends[-1]
    end = flags_at + (count if dummies else 0)
    if end > len(view):
        raise ValueError(f"pair columns need {end} of {len(view)} bytes")
    blob = bytes(view[start:flags_at])
    ciphertexts = tuple([blob[a:b] for a, b in zip(ends, ends[1:])])
    flags = bytes(view[flags_at:end]) if dummies else None
    return leaves, ciphertexts, flags, end


def encode_pairs(leaves, ciphertexts, dummies) -> str:
    """One base64 string of :func:`pack_pairs` output (checkpoints)."""
    out = bytearray()
    pack_pairs(out, leaves, ciphertexts, dummies)
    return _b64(out)


def decode_pairs(text: str) -> tuple[tuple, tuple, bytes]:
    """Inverse of :func:`encode_pairs`; the packed run must fill the
    decoded bytes exactly, anything else is a ``ValueError``."""
    data = _unb64(text)
    *columns, end = unpack_pairs(data, dummies=True)
    if end != len(data):
        raise ValueError(f"pair columns end at {end} of {len(data)} bytes")
    return tuple(columns)
