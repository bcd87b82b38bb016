"""Wire-format tests: every protocol message round-trips.

One codec, one suite: TCP hands the decoder ``bytes`` bodies off
``read_frames``, and the decoder also reads a ``memoryview`` in place,
so every case runs over both input types.
"""

import hashlib
import json
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checking import CheckingNode
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
from repro.index.perturb import draw_noise_plan
from repro.index.tree import IndexTree
from repro.records.codec import pack_pairs
from repro.runtime.wire import (
    WireError,
    decode_message,
    decode_tree,
    encode_body,
    encode_message,
    encode_tree,
    read_frames,
)


#: sha256 over the concatenated un-prefixed bodies of kinds 1-4 in
#: ``PACKED``.  Kind 1 is the bytes the separate ring codec wrote at
#: 247665e; kinds 2-4 moved once, on purpose, to the pair-column layout
#: of ``records.codec.pack_pairs`` (docs/PROTOCOL.md) — recomputed then.
#: Recomputed once more when kind 5 (``CreditGrant``) was retired and its
#: sample left: this is the digest e649461's encoder gives the kinds 1-4
#: samples alone, so none of their bytes moved.  Recomputed again when the
#: join epochs left the wire with a fixed fleet: the kind-1 head went from
#: ``<qqqqI`` to ``<qqqI`` (no epoch) and the kind-2 head from ``<qqqq`` to
#: ``<qq`` (no epoch, no producing node).  The kinds 3 and 4 samples
#: alone digest the same under ccfde70's encoder and this one, so their
#: bytes did not move:
#: 6e97b1cb253ee7880c3d4c623c33b9ffc947f4b67fe437273750135ce7e48c70.
#: Recomputed again when kind 1 moved to columns: the head gained a
#: dummy count (``<qqqII``), and the per-item tag, length and JSON
#: record gave way to dummy positions, dummy values as ``f64``, line
#: ends and the joined lines; the kind-1 samples' dummies became values.
#: The kinds 3 and 4 samples still digest to the value above.
PINNED_PACKED_DIGEST = (
    "d34fa83c925d7d994182dcd9a976390256accc4877e1a6c212fd8967831671dc"
)
#: The kinds 3 and 4 samples of ``PACKED`` alone.
PINNED_CLOUD_KINDS_DIGEST = (
    "6e97b1cb253ee7880c3d4c623c33b9ffc947f4b67fe437273750135ce7e48c70"
)
#: The same over the removed-record and publication kinds (6 and 7): the
#: ``RemovedBatch`` bodies of ``PACKED``, then :func:`merged_publication`,
#: recorded when the two left the JSON envelope.
PINNED_COLUMN_KINDS_DIGEST = (
    "4a9714981e666a3a9e1c0f3ef2381314dbc5fe5ac620b4955db55a874e4f8be9"
)


def _plan():
    domain = AttributeDomain(0, 40, 10)
    return draw_noise_plan(IndexTree(domain, fanout=4), 1.0, random.Random(2))


#: One ciphertext, for the column-form messages.
_CT = b"\x01\x02" * 24


def _roundtrip(destination, message):
    frame = encode_message(destination, message)
    buffer = bytearray(frame)
    bodies = list(read_frames(buffer))
    assert len(bodies) == 1 and not buffer
    return decode_message(bodies[0])


#: id -> (destination, message).  The ids are the test ids.
MESSAGES = {
    "NewPublication-checking": ("checking", NewPublication(1, _plan())),
    "TemplateMsg-merger": ("merger", TemplateMsg(1, _plan())),
    "AnnouncePublication-cloud": ("cloud", AnnouncePublication(4)),
    # A single record is a batch of one, at every hop.
    "RawBatch-cn-0_0": (
        "cn-0",
        RawBatch(0, ("a\tb\tc",), seq=4, ordinal=9),
    ),
    "RawBatch-cn-1_0": ("cn-1", RawBatch(0, (371.0,))),
    "PairBatch-checking0": ("checking", PairBatch(0, (5,), (_CT,), b"\x01")),
    "ToCloudBatch-cloud0": ("cloud", ToCloudBatch(0, (5,), (_CT,))),
    "RemovedBatch-merger": ("merger", RemovedBatch(0, (5,), (_CT,))),
    "RemovedBatch-merger-three": (
        "merger",
        RemovedBatch(6, (5, 9, 5), (_CT, b"", b"ct" * 40)),
    ),
    "PublishingMsg-cn-0": ("cn-0", PublishingMsg(2)),
    "CnPublishing-checking": ("checking", CnPublishing(2, 1)),
    "NodeDown-checking": ("checking", NodeDown(2, 1)),
    "AlSnapshot-merger": ("merger", AlSnapshot(2, (1, 2, 3, 4))),
    "BufferFlush-cloud": ("cloud", BufferFlush(2, (0, 1), (_CT, _CT))),
    "DoneMsg-cn-2": ("cn-2", DoneMsg(2)),
    # Batch frames (docs/BATCHING.md): one frame per batch on the wire.
    "RawBatch-cn-0_1": (
        "cn-0",
        RawBatch(0, ("a\tb\tc", 371.0, "d\te")),
    ),
    "RawBatch-cn-1_1": ("cn-1", RawBatch(3, ())),
    "PairBatch-checking1": (
        "checking",
        PairBatch(1, (5, 2), (_CT, _CT), b"\x01\x00"),
    ),
    "ToCloudBatch-cloud1": ("cloud", ToCloudBatch(2, (0, 1), (_CT, _CT))),
    # The cases the ring's own codec suite used to hold.
    "RawBatch-lines-and-dummy-record": (
        "cn-1",
        RawBatch(
            3,
            ("a line", 1.5, "another"),
            seq=7,
            ordinal=21,
        ),
    ),
    "PairBatch-four-pairs-alternating-dummy": (
        "checking",
        PairBatch(
            2,
            tuple(range(4)),
            tuple(bytes([leaf]) * 9 for leaf in range(4)),
            bytes(leaf % 2 for leaf in range(4)),
            seq=11,
        ),
    ),
    "ToCloudBatch-ciphertext-lengths-differ": (
        "cloud",
        ToCloudBatch(5, (1, 2, 3), tuple(b"ct" * leaf for leaf in (1, 2, 3))),
    ),
    # (Ids from the row-form suite, whose e-records carried a leaf and a
    # tag of their own that could be None; a column-form pair is a leaf
    # offset and ciphertext bytes, nothing else.)
    "ToCloudBatch-none-leaf-and-tag": (
        "cloud",
        ToCloudBatch(1, (0,), (b"\x00\x01",)),
    ),
    "BufferFlush-none-leaf-and-tag": (
        "cloud",
        BufferFlush(1, (3,), (b"\x00\x01",)),
    ),
    "PublishingMsg-stamped": ("checking", PublishingMsg(4, last_seq=9)),
    "Admitted-dispatcher": ("dispatcher", Admitted(12)),
}

#: The messages with a packed layout that compare with ``==`` (kinds
#: 1-4 and 6; kind 7, ``MergedPublication``, has its own tests below);
#: the rest ride the kind-0 JSON envelope.
PACKED_TYPES = (RawBatch, PairBatch, ToCloudBatch, BufferFlush, RemovedBatch)
PACKED = {
    name: case
    for name, case in MESSAGES.items()
    if isinstance(case[1], PACKED_TYPES)
}


@pytest.mark.parametrize(
    ("destination", "message"), MESSAGES.values(), ids=MESSAGES.keys()
)
def test_message_roundtrip(destination, message):
    """The TCP path: a length-prefixed frame, its body as ``bytes``."""
    got_destination, got_message = _roundtrip(destination, message)
    assert got_destination == destination
    assert got_message == message


@pytest.mark.parametrize(
    ("destination", "message"), MESSAGES.values(), ids=MESSAGES.keys()
)
def test_message_roundtrip_from_a_ring_view(destination, message):
    """The un-prefixed body, decoded in place from a ``memoryview`` —
    and it is the TCP frame minus its length word."""
    body = encode_body(destination, message)
    assert encode_message(destination, message)[4:] == body
    assert decode_message(memoryview(body)) == (destination, message)
    assert decode_message(body) == (destination, message)  # a bytearray


@pytest.mark.parametrize(
    ("destination", "message"), PACKED.values(), ids=PACKED.keys()
)
def test_packed_body_is_consumed_exactly(destination, message):
    """On a socket the peer is not our own code: every strict prefix of
    a packed body, and the body plus one byte, is a ``WireError`` — never
    a batch with its last line silently shortened."""
    body = bytes(encode_body(destination, message))
    for cut in range(len(body)):
        for damaged in (body[:cut], memoryview(body)[:cut]):
            with pytest.raises(WireError):
                decode_message(damaged)
    with pytest.raises(WireError):
        decode_message(body + b"\x00")


def test_packed_layout_pinned():
    """The packed bytes do not move by accident: a layout change has to
    come here and say so."""
    batches, columns = hashlib.sha256(), hashlib.sha256()
    for destination, message in PACKED.values():
        digest = columns if isinstance(message, RemovedBatch) else batches
        digest.update(encode_body(destination, message))
    columns.update(encode_body("cloud", merged_publication()))
    assert (batches.hexdigest(), columns.hexdigest()) == (
        PINNED_PACKED_DIGEST,
        PINNED_COLUMN_KINDS_DIGEST,
    )


def test_cloud_kinds_did_not_move():
    """Kind 1's layout change left the kinds 3 and 4 bytes alone."""
    digest = hashlib.sha256()
    for destination, message in PACKED.values():
        if isinstance(message, (ToCloudBatch, BufferFlush)):
            digest.update(encode_body(destination, message))
    assert digest.hexdigest() == PINNED_CLOUD_KINDS_DIGEST


def test_admitted_rides_the_json_envelope():
    """The checking node's acknowledgement to the dispatcher is a kind-0
    frame: one seq, no packed layout to pin."""
    frame = encode_message("dispatcher", Admitted(41))
    assert frame[4] == 0
    assert json.loads(frame[4 + 2 + len("dispatcher") :]) == {
        "type": "Admitted",
        "payload": {"seq": 41},
    }
    assert _roundtrip("dispatcher", Admitted(41)) == (
        "dispatcher",
        Admitted(41),
    )


def merged_publication():
    """A ``MergedPublication`` (its tree has no ``==``) as the merger ships
    it: per leaf, a tuple of ciphertexts in sealed order."""
    domain = AttributeDomain(0, 40, 10)
    tree = IndexTree(domain, fanout=4)
    tree.set_leaf_counts([3, -1, 5, 2])
    return MergedPublication(
        7,
        tree,
        {
            0: (b"\x03" * 32, _CT),
            1: (_CT, b"pad" * 16),
            2: (b"", b"\x04" * 48),
            3: (b"\x05" * 64, b"\x06" * 16),
        },
    )


def _same_publication(got, sent) -> bool:
    return (
        got.publication == sent.publication
        and [[n.count for n in level] for level in got.tree.levels]
        == [[n.count for n in level] for level in sent.tree.levels]
        and got.overflow == sent.overflow
        and all(
            type(column) is tuple and all(type(c) is bytes for c in column)
            for column in got.overflow.values()
        )
    )


def test_merged_publication_roundtrip():
    sent = merged_publication()
    destination, message = _roundtrip("cloud", sent)
    assert destination == "cloud"
    assert _same_publication(message, sent)
    assert message.tree.root.count == sent.tree.root.count


class TestMergedPublicationFrame:
    """Kind 7: a length-prefixed JSON head (number, tree, leaves of empty
    arrays), then the pair columns with one leaf per overflow slot."""

    def test_roundtrip_from_a_ring_view(self):
        sent = merged_publication()
        body = encode_body("cloud", sent)
        assert encode_message("cloud", sent)[4:] == body
        for view in (memoryview(body), body, bytes(body)):
            destination, message = decode_message(view)
            assert destination == "cloud"
            assert _same_publication(message, sent)

    def test_empty_arrays_survive(self):
        """A capacity-0 array has no slot to carry its leaf; the head
        names it, so every leaf still has an array after the wire."""
        sent = merged_publication()
        sent = MergedPublication(8, sent.tree, {0: (), 1: (_CT,), 2: (), 3: ()})
        _, message = _roundtrip("cloud", sent)
        assert _same_publication(message, sent)

    def test_body_is_consumed_exactly(self):
        body = bytes(encode_body("cloud", merged_publication()))
        for cut in range(len(body)):
            for damaged in (body[:cut], memoryview(body)[:cut]):
                with pytest.raises(WireError):
                    decode_message(damaged)
        with pytest.raises(WireError):
            decode_message(body + b"\x00")

    @staticmethod
    def _parts(message):
        """``(frame head, head length, JSON head, pair columns)``."""
        body = bytes(encode_body("cloud", message))
        at = 2 + len("cloud")
        length = int.from_bytes(body[at : at + 4], "little")
        head = body[at + 4 : at + 4 + length]
        return body[:at], body[at : at + 4], head, body[at + 4 + length :]

    def test_head_length_past_the_frame_rejected(self):
        frame, _, head, columns = self._parts(merged_publication())
        total = len(head) + len(columns)
        for length in (total + 1, 2**32 - 1):
            damaged = frame + _u32(length) + head + columns
            with pytest.raises(WireError, match="head past"):
                decode_message(damaged)

    def test_truncated_head_rejected(self):
        frame, length, head, columns = self._parts(merged_publication())
        for damaged in (
            frame + length[:2],
            frame + length + head[:-1],
            frame + _u32(len(head) - 1) + head[:-1] + columns,
        ):
            with pytest.raises(WireError):
                decode_message(damaged)

    def test_leaf_slots_must_be_contiguous(self):
        sent = merged_publication()
        frame, length, head, _ = self._parts(sent)
        columns = bytearray()
        pack_pairs(columns, (0, 1, 0), (_CT, _CT, _CT))
        with pytest.raises(WireError, match="not contiguous"):
            decode_message(frame + length + head + bytes(columns))

    def test_trailing_bytes_rejected(self):
        frame, length, head, columns = self._parts(merged_publication())
        with pytest.raises(WireError):
            decode_message(frame + length + head + columns + b"\x00")


class TestTreeCodec:
    def test_tree_roundtrip_preserves_structure(self):
        domain = AttributeDomain(0, 170, 10)
        tree = IndexTree(domain, fanout=4)
        tree.set_leaf_counts(list(range(17)))
        rebuilt = decode_tree(encode_tree(tree))
        assert rebuilt.height == tree.height
        for a, b in zip(rebuilt.all_nodes(), tree.all_nodes()):
            assert a.count == b.count
            assert (a.low, a.high) == (b.low, b.high)

    def test_shape_mismatch_rejected(self):
        domain = AttributeDomain(0, 40, 10)
        payload = encode_tree(IndexTree(domain, fanout=4))
        payload["levels"] = payload["levels"][:-1]
        with pytest.raises(WireError):
            decode_tree(payload)


class TestFraming:
    def test_partial_frames_wait(self):
        frame = encode_message("cloud", DoneMsg(1))
        buffer = bytearray(frame[:5])
        assert list(read_frames(buffer)) == []
        buffer.extend(frame[5:])
        assert len(list(read_frames(buffer))) == 1

    def test_multiple_frames_in_one_buffer(self):
        buffer = bytearray()
        for publication in range(5):
            buffer.extend(encode_message("cloud", DoneMsg(publication)))
        messages = [decode_message(body) for body in read_frames(buffer)]
        assert [m.publication for _, m in messages] == list(range(5))

    def test_oversized_frame_rejected(self):
        buffer = bytearray(b"\xff\xff\xff\xff" + b"x" * 10)
        with pytest.raises(WireError):
            list(read_frames(buffer))

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError):
            encode_message("cloud", object())

    def test_garbage_body_rejected(self):
        with pytest.raises(WireError):
            decode_message(b"not json at all")

    @pytest.mark.parametrize(
        ("message", "stamp"),
        [
            (CnPublishing(0, node_id=1), "node"),
            (NodeDown(0, node_id=1), "node"),
            (NodeDown(0, node_id=1), "pub"),
            (PublishingMsg(0, last_seq=3), "last"),
            (Admitted(3), "seq"),
        ],
    )
    def test_frame_missing_a_stamp_rejected(self, message, stamp):
        """Every peer stamps its frames; a JSON envelope without one is
        malformed, not an unstamped message.  (A packed head is
        positional and cannot lack a stamp: see
        ``test_packed_body_is_consumed_exactly``.)"""
        body = bytes(encode_body("cn-0", message))
        cut = 2 + len("cn-0")  # kind, destination length, destination
        head, envelope = body[:cut], json.loads(body[cut:])
        assert decode_message(head + json.dumps(envelope).encode()) == (
            "cn-0",
            message,
        )
        del envelope["payload"][stamp]
        with pytest.raises(WireError):
            decode_message(head + json.dumps(envelope).encode())

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"\x00",
            b"\x09\x00",
            b"\x00\x01\xff{}",
            # A CreditGrant frame: kind 5 is retired and stays unassigned.
            b"\x05\x0adispatcher" + struct.pack("<qq", 7, 4096),
        ],
        ids=[
            "empty",
            "cut",
            "unknown-kind",
            "destination-not-utf-8",
            "retired-kind-5",
        ],
    )
    def test_damaged_head_rejected(self, body):
        with pytest.raises(WireError):
            decode_message(memoryview(body))

    def test_unknown_json_type_rejected(self):
        with pytest.raises(WireError):
            decode_message(b'\x00\x01c{"type":"Nope","payload":{}}')

    def test_unrepresentable_message_rejected(self):
        with pytest.raises(WireError):
            encode_message("x" * 256, DoneMsg(1))
        with pytest.raises(WireError):  # a leaf that is no int32
            encode_message("cloud", ToCloudBatch(0, (1 << 40,), (_CT,)))


@settings(max_examples=40)
@given(
    publication=st.integers(min_value=0, max_value=10**6),
    leaf=st.integers(min_value=0, max_value=10**6),
    ciphertext=st.binary(min_size=1, max_size=300),
    dummy=st.booleans(),
)
def test_pair_roundtrip_property(publication, leaf, ciphertext, dummy):
    """Pairs with arbitrary ciphertext bytes survive the wire."""
    message = PairBatch(publication, (leaf,), (ciphertext,), bytes((dummy,)))
    _, decoded = _roundtrip("checking", message)
    assert decoded == message


_I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_pair_rows = st.lists(
    st.tuples(_I32, st.binary(max_size=200), st.booleans()), max_size=300
)


@settings(max_examples=60, deadline=None)
@given(
    publication=st.integers(min_value=0, max_value=10**6),
    rows=_pair_rows,
    seq=st.integers(min_value=-1, max_value=10**9),
)
def test_pair_columns_roundtrip_property(publication, rows, seq):
    """Kinds 2, 3 and 4 over 0-300 pairs: ciphertexts of any length
    (empty included), leaves over the whole ``i32`` range, an empty batch
    that still carries its ``seq`` — same columns, same types, out."""
    leaves = tuple(leaf for leaf, _, _ in rows)
    ciphertexts = tuple(ciphertext for _, ciphertext, _ in rows)
    dummies = bytes(dummy for _, _, dummy in rows)
    for destination, message in (
        (
            "checking",
            PairBatch(
                publication, leaves, ciphertexts, dummies, seq=seq
            ),
        ),
        ("cloud", ToCloudBatch(publication, leaves, ciphertexts)),
        ("cloud", BufferFlush(publication, leaves, ciphertexts)),
    ):
        body = encode_body(destination, message)
        for damaged in (bytes(body), memoryview(body)):
            got = decode_message(damaged)
            assert got == (destination, message)
            assert type(got[1].leaves) is tuple
            assert type(got[1].ciphertexts) is tuple
            assert all(type(c) is bytes for c in got[1].ciphertexts)


def _pair_body(message, destination="checking"):
    """``(head, count, leaves, lengths, rest)`` of a packed pair body."""
    body = bytes(encode_body(destination, message))
    head = 2 + len(destination) + (16 if isinstance(message, PairBatch) else 8)
    count = len(message.leaves)
    leaves_end = head + 4 + 4 * count
    lengths_end = leaves_end + 4 * count
    return (
        body[:head],
        body[head : head + 4],
        body[head + 4 : leaves_end],
        body[leaves_end:lengths_end],
        body[lengths_end:],
    )


def _u32(value: int) -> bytes:
    return value.to_bytes(4, "little")


_PAIRS = PairBatch(4, (7, 8, 9), (b"aa", b"", b"cccc"), b"\x00\x01\x00", seq=2)
_CLOUD = ToCloudBatch(4, (7, 8, 9), (b"aa", b"", b"cccc"))
_REMOVED = RemovedBatch(4, (7, 8, 9), (b"aa", b"", b"cccc"))


def _malformed_pair_bodies():
    for name, message in (
        ("pairs", _PAIRS), ("cloud", _CLOUD), ("removed", _REMOVED)
    ):
        head, count, leaves, lengths, rest = _pair_body(message)
        whole = head + count + leaves + lengths + rest
        yield f"{name}-count-larger-than-columns", (
            head + _u32(4) + leaves + lengths + rest
        )
        yield f"{name}-count-smaller-than-columns", (
            head + _u32(2) + leaves + lengths + rest
        )
        yield f"{name}-lengths-sum-one-more", (
            head + count + leaves + _u32(3) + lengths[4:] + rest
        )
        yield f"{name}-lengths-sum-one-less", (
            head + count + leaves + _u32(1) + lengths[4:] + rest
        )
        yield f"{name}-trailing-byte", whole + b"\x00"
        yield f"{name}-huge-count", (
            head + _u32(2**32 - 1) + leaves + lengths + rest
        )
    head, count, leaves, lengths, rest = _pair_body(_PAIRS)
    yield "pairs-truncated-dummies-column", (
        head + count + leaves + lengths + rest[:-1]
    )
    yield "pairs-no-dummies-column", head + count + leaves + lengths + rest[:-3]


_MALFORMED = dict(_malformed_pair_bodies())


@pytest.mark.parametrize("body", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_pair_body_rejected(body):
    """Every way the columns can disagree with each other or with the
    bytes present is a ``WireError`` — never another exception, never a
    batch with a column silently shortened."""
    for damaged in (body, memoryview(body)):
        with pytest.raises(WireError):
            decode_message(damaged)


#: A kind-1 sample and its fields, as ``_raw_body`` lays them out.
_RAW = RawBatch(3, ("ab", 1.5, "", "cde", 2.5), seq=7, ordinal=21)
_RAW_FIELDS = dict(
    count=5, dummies=2, positions=(1, 4), values=(1.5, 2.5), ends=(2, 2, 5),
    text=b"abcde",
)


def _raw_body(count, dummies, positions, values, ends, text):
    """A kind-1 body to ``cn-0``: ``pub | seq | ordinal | count | dummies``
    (``<qqqII``), the dummy positions (u32), the dummy values (f64), the
    line ends (u32), the joined lines."""
    return (
        b"\x01\x04cn-0"
        + struct.pack("<qqqII", 3, 7, 21, count, dummies)
        + struct.pack(f"<{len(positions)}I", *positions)
        + struct.pack(f"<{len(values)}d", *values)
        + struct.pack(f"<{len(ends)}I", *ends)
        + text
    )


def _malformed_raw_bodies():
    def body(**changes):
        return _raw_body(**{**_RAW_FIELDS, **changes})

    yield "count-larger-than-columns", body(count=6)
    yield "count-smaller-than-columns", body(count=4)
    yield "more-dummies-than-items", body(count=1)
    yield "huge-count", body(count=2**32 - 1)
    yield "ends-decrease", body(ends=(2, 1, 5))
    yield "end-past-the-frame", body(ends=(2, 2, 6))
    yield "ends-short-of-the-lines", body(ends=(2, 2, 4))
    yield "end-inside-a-character", body(
        count=4, ends=(1, 3), text="éx".encode()
    )
    yield "lines-not-utf-8", body(text=b"ab\xffde")
    yield "positions-unsorted", body(positions=(4, 1))
    yield "positions-duplicated", body(positions=(1, 1))
    yield "position-out-of-range", body(positions=(1, 5))
    whole = body()
    field_ends = {
        "head": 6 + 32,
        "positions": 6 + 32 + 8,
        "values": 6 + 32 + 8 + 16,
        "ends": 6 + 32 + 8 + 16 + 12,
        "lines": len(whole),
    }
    for field, end in field_ends.items():
        yield f"truncated-in-the-{field}", whole[: end - 1]
    yield "trailing-byte", whole + b"\x00"


_MALFORMED_RAW = dict(_malformed_raw_bodies())


class TestRawBatchFrame:
    """Kind 1 is strict: every field is checked against the others and
    against the bytes present."""

    def test_layout(self):
        assert bytes(encode_body("cn-0", _RAW)) == _raw_body(**_RAW_FIELDS)
        assert decode_message(_raw_body(**_RAW_FIELDS)) == ("cn-0", _RAW)

    @pytest.mark.parametrize(
        "body", _MALFORMED_RAW.values(), ids=_MALFORMED_RAW.keys()
    )
    def test_malformed_body_rejected(self, body):
        for damaged in (body, memoryview(body)):
            with pytest.raises(WireError):
                decode_message(damaged)

    def test_an_item_that_is_no_line_or_number_fails_at_encode(self):
        with pytest.raises(WireError):
            encode_body("cn-0", RawBatch(0, ("a line", object())))

    def test_non_ascii_lines_keep_their_bytes(self):
        message = RawBatch(1, ("é", 4.0, "x\ud800", "", "ü\tz"))
        body = bytes(encode_body("cn-0", message))
        surrogate = b"\xed\xa0\x80"
        assert body.endswith("éx".encode() + surrogate + "ü\tz".encode())
        assert decode_message(body) == ("cn-0", message)


@pytest.mark.parametrize("leaf", [2**31, -(2**31) - 1])
def test_leaf_outside_i32_fails_at_encode(leaf):
    for message in (
        PairBatch(0, (leaf,), (b"x",), b"\x00"),
        ToCloudBatch(0, (leaf,), (b"x",)),
        BufferFlush(0, (leaf,), (b"x",)),
    ):
        with pytest.raises(WireError):
            encode_body("cloud", message)


def test_checkpointed_residents_are_length_checked(flu_config):
    """The same packer holds the randomer residents in a collector
    checkpoint; restoring one with a corrupted length word is a
    ``ValueError``, not a silently shorter buffer."""
    tree = IndexTree(flu_config.domain, fanout=flu_config.fanout)
    plan = draw_noise_plan(tree, 1.0, random.Random(2))
    checking = CheckingNode(flu_config, rng=random.Random(1))
    checking.on_new_publication(NewPublication(0, plan))
    checking.on_pair_batch(
        PairBatch(0, (1, 2, 3), (b"aa", b"", b"cccc"), b"\x00\x01\x00")
    )
    snapshot = checking.snapshot()
    saved = snapshot["publications"]["0"]
    packed = bytearray(saved["residents"])
    first_length = slice(4 + 4 * 3, 4 + 4 * 3 + 4)  # past count and leaves
    assert packed[first_length] == _u32(2)

    def restore_with(length: int) -> CheckingNode:
        packed[first_length] = _u32(length)
        saved["residents"] = bytes(packed)
        restored = CheckingNode(flu_config, rng=random.Random(1))
        restored.restore(snapshot)
        return restored

    for corrupted in (1, 3, 2**32 - 1):
        with pytest.raises(ValueError):
            restore_with(corrupted)
    assert restore_with(2).snapshot() == checking.snapshot()


@settings(max_examples=40)
@given(
    publication=st.integers(min_value=0, max_value=10**6),
    items=st.lists(
        st.one_of(
            st.text(max_size=60).filter(lambda s: "\n" not in s),
            st.floats(allow_nan=False),  # a dummy's indexed value
        ),
        max_size=12,
    ),
)
def test_raw_batch_roundtrip_property(publication, items):
    """Mixed line/dummy batches of any size survive the wire — order,
    item kinds and dummy values intact, as one frame."""
    message = RawBatch(publication, tuple(items))
    frame = encode_message("cn-0", message)
    buffer = bytearray(frame)
    assert len(list(read_frames(bytearray(frame)))) == 1  # one TCP frame
    _, decoded = _roundtrip("cn-0", message)
    assert decoded == message
    assert [type(item) for item in decoded.items] == [
        type(item) for item in items
    ]


def test_raw_line_with_a_lone_surrogate_roundtrips():
    """A line that is not valid UTF-8 text (a lone surrogate, as
    ``errors="surrogateescape"`` log reading yields) crosses the wire
    unchanged, so the computing node rejects it as the in-process
    runtimes do; a valid line keeps its plain UTF-8 bytes."""
    message = RawBatch(
        3,
        ("\ud800\t1\t375\tnone", "pé\t1\t375\tnone", 371.0),
        seq=1,
        ordinal=5,
    )
    body = encode_body("cn-0", message)
    assert "pé\t1\t375\tnone".encode("utf-8") in body
    assert decode_message(memoryview(body)) == ("cn-0", message)
    assert _roundtrip("cn-0", message) == ("cn-0", message)
