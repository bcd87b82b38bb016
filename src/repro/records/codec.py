"""Payload codecs for records and noise plans.

Shared by the wire format (:mod:`repro.runtime.wire`), the durability
journal and the collector checkpoints — living here, below both the core
pipeline and the runtime, so any layer can serialise records without
importing the transport.

Two codec families:

* JSON-able dicts (``encode_*``/``decode_*``) — every durable artefact
  and the payloads of the wire's JSON control envelope.
* A binary form for :class:`EncryptedRecord`
  (``encode_encrypted_into``/``decode_encrypted_from``) — its one layout
  on every batch frame, on sockets and in rings alike: a fixed header
  read with ``struct.unpack_from`` straight off the buffer, so decoding
  a batch makes exactly one copy per record (the ciphertext into its own
  ``bytes``) and never an intermediate ``bytes`` of the frame.
"""

from __future__ import annotations

import base64
import struct

from repro.index.perturb import NoisePlan
from repro.records.record import EncryptedRecord, Record


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def encode_encrypted(record: EncryptedRecord) -> dict:
    """Serialise one encrypted record as a JSON-able dict."""
    return {
        "leaf": record.leaf_offset,
        "ct": _b64(record.ciphertext),
        "tag": record.tag,
        "pub": record.publication,
    }


def decode_encrypted(payload: dict) -> EncryptedRecord:
    """Inverse of :func:`encode_encrypted`."""
    return EncryptedRecord(
        leaf_offset=payload["leaf"],
        ciphertext=_unb64(payload["ct"]),
        tag=payload["tag"],
        publication=payload["pub"],
    )


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
# Binary EncryptedRecord codec (every batch frame)
# ---------------------------------------------------------------------------

# leaf (i32, -1 = None) | tag (i32, -1 = None) | pub (i32) | ct length (u32)
_ENCRYPTED_HEADER = struct.Struct("<iiiI")


def encode_encrypted_into(out: bytearray, record: EncryptedRecord) -> None:
    """Append the binary form of ``record`` to ``out``."""
    leaf = -1 if record.leaf_offset is None else record.leaf_offset
    tag = -1 if record.tag is None else record.tag
    out += _ENCRYPTED_HEADER.pack(
        leaf, tag, record.publication, len(record.ciphertext)
    )
    out += record.ciphertext


def decode_encrypted_from(
    view, offset: int = 0
) -> tuple[EncryptedRecord, int]:
    """Decode one binary record at ``offset`` of ``view`` (a buffer).

    Returns the record and the offset just past it.  The only copy made
    is the ciphertext slice into its own ``bytes``.
    """
    leaf, tag, publication, length = _ENCRYPTED_HEADER.unpack_from(
        view, offset
    )
    start = offset + _ENCRYPTED_HEADER.size
    ciphertext = bytes(view[start : start + length])
    if len(ciphertext) != length:
        raise ValueError("truncated encrypted record")
    return (
        EncryptedRecord(
            leaf_offset=None if leaf < 0 else leaf,
            ciphertext=ciphertext,
            tag=None if tag < 0 else tag,
            publication=publication,
        ),
        start + length,
    )
