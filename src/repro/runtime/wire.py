"""Wire encoding of the FRESQUE protocol messages.

The one module that knows what a routed ``(destination, message)`` pair
of :mod:`repro.core.messages` looks like as bytes on TCP sockets (the
paper's 17-node cluster)::

    length (u32 LE) | kind (u8) | dest length (u8) | dest utf-8 | body

:func:`encode_body` builds the frame without its length word;
:func:`append_frame` appends the whole frame to a buffer, so a run of
frames to one destination is one buffer and one socket write.  Kinds
1-4, 6 and 7 — ``RawBatch``, ``PairBatch``, ``ToCloudBatch``,
``BufferFlush``, ``RemovedBatch``, ``MergedPublication``: everything
that carries ciphertexts or rides once per batch — are packed with
``struct`` and decoded in place: no base64, one copy per ciphertext;
kinds 2-4, 6 and 7 carry the pair columns of
``records.codec.pack_pairs``, the collector checkpoint's packer too.
Kind 0 is a JSON ``{"type", "payload"}`` envelope for every other
message.  Kind 5 is retired and unassigned: a frame of that kind is a
:class:`WireError` (docs/PROTOCOL.md).
"""

from __future__ import annotations

import json
import operator
import struct
from itertools import accumulate, groupby

from repro.core.messages import (
    Admitted,
    AlSnapshot,
    AnnouncePublication,
    BufferFlush,
    CnPublishing,
    DoneMsg,
    MergedPublication,
    NewPublication,
    NodeDown,
    PairBatch,
    PublishingMsg,
    RawBatch,
    RemovedBatch,
    TemplateMsg,
    ToCloudBatch,
)
from repro.index.domain import AttributeDomain
from repro.index.tree import IndexTree
from repro.records.codec import (
    decode_plan,
    encode_plan,
    pack_pairs,
    unpack_pairs,
)

_FRAME_HEADER = struct.Struct("<I")

#: Upper bound on one frame, to stop a malicious peer exhausting memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WireError(ValueError):
    """Raised for malformed frames or unknown message types."""


# ---------------------------------------------------------------------------
# Kind 0: JSON payloads (record/plan codecs live in repro.records.codec — a
# leaf module — so the core pipeline and the durability journal can use
# them without importing the transport)
# ---------------------------------------------------------------------------


def encode_tree(tree: IndexTree) -> dict:
    """Serialise an index tree as domain parameters plus level counts."""
    return {
        "dmin": tree.domain.dmin,
        "dmax": tree.domain.dmax,
        "bin": tree.domain.bin_interval,
        "fanout": tree.fanout,
        "levels": [[node.count for node in level] for level in tree.levels],
    }


def decode_tree(payload: dict) -> IndexTree:
    """Rebuild an index tree from :func:`encode_tree` output."""
    domain = AttributeDomain(payload["dmin"], payload["dmax"], payload["bin"])
    tree = IndexTree(domain, fanout=payload["fanout"])
    if [len(level) for level in tree.levels] != [
        len(level) for level in payload["levels"]
    ]:
        raise WireError("level shape does not match the encoded domain")
    for level_nodes, level_counts in zip(tree.levels, payload["levels"]):
        for node, count in zip(level_nodes, level_counts):
            node.count = count
    return tree


#: Message type -> JSON payload, for every message without a packed kind.
_ENCODERS = {
    NewPublication: lambda m: {"pub": m.publication, "plan": encode_plan(m.plan)},
    TemplateMsg: lambda m: {"pub": m.publication, "plan": encode_plan(m.plan)},
    AnnouncePublication: lambda m: {"pub": m.publication},
    PublishingMsg: lambda m: {"pub": m.publication, "last": m.last_seq},
    CnPublishing: lambda m: {"pub": m.publication, "node": m.node_id},
    NodeDown: lambda m: {"pub": m.publication, "node": m.node_id},
    AlSnapshot: lambda m: {"pub": m.publication, "al": list(m.al)},
    DoneMsg: lambda m: {"pub": m.publication},
    Admitted: lambda m: {"seq": m.seq},
}

_DECODERS = {
    "NewPublication": lambda p: NewPublication(p["pub"], decode_plan(p["plan"])),
    "TemplateMsg": lambda p: TemplateMsg(p["pub"], decode_plan(p["plan"])),
    "AnnouncePublication": lambda p: AnnouncePublication(p["pub"]),
    "PublishingMsg": lambda p: PublishingMsg(p["pub"], last_seq=p["last"]),
    "CnPublishing": lambda p: CnPublishing(p["pub"], p["node"]),
    "NodeDown": lambda p: NodeDown(p["pub"], p["node"]),
    "AlSnapshot": lambda p: AlSnapshot(p["pub"], tuple(p["al"])),
    "DoneMsg": lambda p: DoneMsg(p["pub"]),
    "Admitted": lambda p: Admitted(p["seq"]),
}


def _dump_json(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def _load_json(view):
    return json.loads(str(view, "utf-8"))


# ---------------------------------------------------------------------------
# Bodies (little endian, unpadded).  Per kind, a packer appends the body to
# ``out`` and an unpacker reads it at ``offset``: -> (message, end offset).
# ---------------------------------------------------------------------------

#: pub, seq, ordinal, item count, dummy count; the dummy positions and
#: values, the line ends and the joined lines follow.
_BATCH_HEAD = struct.Struct("<qqqII")
#: pub, seq; the pair columns (records.codec.pack_pairs: count, leaves,
#: lengths, ciphertexts, dummy flags) follow.
_PAIR_HEAD = struct.Struct("<qq")
_CLOUD_HEAD = struct.Struct("<q")  # pub; the pair columns (no flags) follow
_HEAD_LENGTH = struct.Struct("<I")  # a MergedPublication's JSON head, bytes


def _pack_json(out: bytearray, message) -> None:
    name = type(message).__name__
    if type(message) not in _ENCODERS:
        raise WireError(f"cannot encode {name}")
    payload = _ENCODERS[type(message)](message)
    out += _dump_json({"type": name, "payload": payload})


def _unpack_json(_, view, offset: int):
    envelope = _load_json(view[offset:])
    return _DECODERS[envelope["type"]](envelope["payload"]), len(view)


def _pack_raw_batch(out: bytearray, message: RawBatch) -> None:
    """``head | dummy positions (u32 each) | dummy values (f64 each) |
    line ends (u32 each) | the lines' UTF-8, joined``: the items in the
    arrival order the randomer's mixing relies on, a dummy (a number)
    named by its position among them.  A line keeps lone surrogates, for
    the node to reject it."""
    items = message.items
    at = [i for i, item in enumerate(items) if not isinstance(item, str)]
    lines = [item for item in items if isinstance(item, str)] if at else items
    text = "".join(lines).encode("utf-8", "surrogatepass")
    if len(text) == sum(map(len, lines)):  # ASCII: a character is a byte
        ends = accumulate(map(len, lines))
    else:
        ends = accumulate(
            len(line.encode("utf-8", "surrogatepass")) for line in lines
        )
    out += _BATCH_HEAD.pack(
        message.publication, message.seq, message.ordinal, len(items), len(at)
    )
    out += struct.pack(f"<{len(at)}I", *at)
    out += struct.pack(f"<{len(at)}d", *[items[i] for i in at])
    out += struct.pack(f"<{len(lines)}I", *ends)
    out += text


def _unpack_raw_batch(message_type, view, offset: int):
    publication, seq, ordinal, count, dummies = _BATCH_HEAD.unpack_from(
        view, offset
    )
    if dummies > count:
        raise WireError(f"{dummies} dummies among {count} items")
    offset += _BATCH_HEAD.size
    at = struct.unpack_from(f"<{dummies}I", view, offset)
    offset += 4 * dummies
    values = struct.unpack_from(f"<{dummies}d", view, offset)
    offset += 8 * dummies
    ends = struct.unpack_from(f"<{count - dummies}I", view, offset)
    offset += 4 * (count - dummies)
    if at and (at[-1] >= count or any(map(operator.ge, at, at[1:]))):
        raise WireError("dummy positions not increasing below the count")
    if any(map(operator.gt, ends, ends[1:])):
        raise WireError("line ends decrease")
    end = offset + (ends[-1] if ends else 0)
    if end > len(view):
        raise WireError(f"lines need {end} of {len(view)} bytes")
    blob = bytes(view[offset:end])
    text = str(blob, "utf-8", "surrogatepass")
    starts = (0, *ends)
    if len(text) == len(blob):  # ASCII: byte ends are character ends
        items = [text[a:b] for a, b in zip(starts, ends)]
    else:
        items = [
            str(blob[a:b], "utf-8", "surrogatepass")
            for a, b in zip(starts, ends)
        ]
    for position, value in zip(at, values):
        items.insert(position, value)
    return message_type(
        publication, tuple(items), seq=seq, ordinal=ordinal
    ), end


def _pack_pair_batch(out: bytearray, message: PairBatch) -> None:
    out += _PAIR_HEAD.pack(message.publication, message.seq)
    pack_pairs(out, message.leaves, message.ciphertexts, message.dummies)


def _unpack_pair_batch(message_type, view, offset: int):
    publication, seq = _PAIR_HEAD.unpack_from(view, offset)
    *columns, end = unpack_pairs(view, offset + _PAIR_HEAD.size, dummies=True)
    return message_type(publication, *columns, seq=seq), end


def _pack_cloud_pairs(out: bytearray, message) -> None:
    out += _CLOUD_HEAD.pack(message.publication)
    pack_pairs(out, message.leaves, message.ciphertexts)


def _unpack_cloud_pairs(message_type, view, offset: int):
    (publication,) = _CLOUD_HEAD.unpack_from(view, offset)
    leaves, ciphertexts, _, end = unpack_pairs(view, offset + _CLOUD_HEAD.size)
    return message_type(publication, leaves, ciphertexts), end


def _pack_merged(out: bytearray, message: MergedPublication) -> None:
    """``head length u32 | JSON head | pair columns``: the columns hold
    one leaf per overflow slot, each leaf's slots contiguous and in
    sealed order; decoding regroups them by leaf."""
    overflow = message.overflow
    head = _dump_json(
        {
            "pub": message.publication,
            "tree": encode_tree(message.tree),
            # A leaf of an empty array has no slot to name it below.
            "empty": [leaf for leaf, column in overflow.items() if not column],
        }
    )
    out += _HEAD_LENGTH.pack(len(head))
    out += head
    pack_pairs(
        out,
        [leaf for leaf, column in overflow.items() for _ in column],
        [ciphertext for column in overflow.values() for ciphertext in column],
    )


def _unpack_merged(message_type, view, offset: int):
    (length,) = _HEAD_LENGTH.unpack_from(view, offset)
    start = offset + _HEAD_LENGTH.size
    if start + length > len(view):
        raise WireError(f"a {length}-byte head past the {len(view)}-byte frame")
    head = _load_json(view[start : start + length])
    leaves, ciphertexts, _, end = unpack_pairs(view, start + length)
    overflow: dict[int, tuple[bytes, ...]] = {}
    at = 0
    for leaf, run in groupby(leaves):
        if leaf in overflow:
            raise WireError(f"the slots of leaf {leaf} are not contiguous")
        size = len(list(run))
        overflow[leaf] = ciphertexts[at : at + size]
        at += size
    for leaf in head["empty"]:
        overflow[leaf] = ()
    tree = decode_tree(head["tree"])
    return message_type(head["pub"], tree, overflow), end


#: Kind -> (message type, packer, unpacker); every other type rides kind 0.
#: Kind 5 is retired: it stays unassigned, so its frames do not decode.
_KINDS = {
    0: (None, _pack_json, _unpack_json),
    1: (RawBatch, _pack_raw_batch, _unpack_raw_batch),
    2: (PairBatch, _pack_pair_batch, _unpack_pair_batch),
    3: (ToCloudBatch, _pack_cloud_pairs, _unpack_cloud_pairs),
    4: (BufferFlush, _pack_cloud_pairs, _unpack_cloud_pairs),
    6: (RemovedBatch, _pack_cloud_pairs, _unpack_cloud_pairs),
    7: (MergedPublication, _pack_merged, _unpack_merged),
}
_KIND_OF = {entry[0]: kind for kind, entry in _KINDS.items()}


def _append_body(out: bytearray, destination: str, message) -> None:
    dest = destination.encode("utf-8")
    if len(dest) > 255:
        raise WireError(f"destination of {len(dest)} bytes exceeds 255")
    kind = _KIND_OF.get(type(message), 0)
    _, pack, _ = _KINDS[kind]
    out += bytes((kind, len(dest)))
    out += dest
    try:
        pack(out, message)
    except struct.error as exc:  # a field its layout cannot hold
        raise WireError(f"cannot pack a kind-{kind} body: {exc}") from exc


def encode_body(destination: str, message) -> bytearray:
    """Serialise one routed message as ``kind | dest length | dest |
    body`` — the frame without its length word."""
    out = bytearray()
    _append_body(out, destination, message)
    return out


def append_frame(out: bytearray, destination: str, message) -> None:
    """Append one routed message to ``out`` as a length-prefixed frame,
    so a run of frames is built in one buffer.  A message that cannot be
    framed raises :class:`WireError` and leaves ``out`` as it was."""
    start = len(out)
    out += _FRAME_HEADER.pack(0)  # the length word, patched below
    try:
        _append_body(out, destination, message)
        length = len(out) - start - _FRAME_HEADER.size
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame of {length} bytes exceeds the maximum")
    except BaseException:
        del out[start:]
        raise
    _FRAME_HEADER.pack_into(out, start, length)


def encode_message(destination: str, message) -> bytes:
    """Serialise one routed message into a length-prefixed frame."""
    out = bytearray()
    append_frame(out, destination, message)
    return bytes(out)


def decode_message(body) -> tuple[str, object]:
    """Inverse of :func:`encode_body` for one complete frame body —
    ``bytes``, a ``bytearray`` or a ``memoryview``, decoded in
    place (no intermediate ``bytes`` of the frame).  The body must be
    consumed exactly; whatever is wrong with it is a :class:`WireError`."""
    view = memoryview(body)
    try:
        offset = 2 + view[1]
        destination = str(view[2:offset], "utf-8")
        message_type, _, unpack = _KINDS[view[0]]
        message, end = unpack(message_type, view, offset)
        if end != len(view):
            raise WireError(f"body ends at {end} of {len(view)} bytes")
        return destination, message
    except (LookupError, ValueError, TypeError, struct.error) as exc:
        raise WireError(f"malformed frame: {exc!r}") from exc


def read_frames(buffer: bytearray):
    """Yield complete frame bodies from ``buffer``, consuming them.

    Raises
    ------
    WireError
        If a frame announces more than :data:`MAX_FRAME_BYTES`.
    """
    while len(buffer) >= _FRAME_HEADER.size:
        (length,) = _FRAME_HEADER.unpack_from(buffer, 0)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame of {length} bytes exceeds the maximum")
        if len(buffer) < _FRAME_HEADER.size + length:
            return
        body = bytes(buffer[_FRAME_HEADER.size : _FRAME_HEADER.size + length])
        del buffer[: _FRAME_HEADER.size + length]
        yield body
