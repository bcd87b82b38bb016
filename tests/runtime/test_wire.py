"""Wire-format tests: every protocol message round-trips."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (
    AlSnapshot,
    AnnouncePublication,
    BufferFlush,
    CnPublishing,
    DoneMsg,
    MergedPublication,
    NewPublication,
    NodeDown,
    Pair,
    PairBatch,
    PublishingMsg,
    RawBatch,
    RemovedRecord,
    TemplateMsg,
    ToCloudBatch,
)
from repro.index.domain import AttributeDomain
from repro.index.overflow import OverflowArray
from repro.index.perturb import draw_noise_plan
from repro.index.tree import IndexTree
from repro.records.record import EncryptedRecord, Record
from repro.runtime.wire import (
    WireError,
    decode_message,
    decode_tree,
    encode_message,
    encode_tree,
    read_frames,
)


def _plan():
    domain = AttributeDomain(0, 40, 10)
    return draw_noise_plan(IndexTree(domain, fanout=4), 1.0, random.Random(2))


def _encrypted():
    return EncryptedRecord(
        leaf_offset=2, ciphertext=b"\x01\x02" * 24, tag=77, publication=3
    )


def _roundtrip(destination, message):
    frame = encode_message(destination, message)
    buffer = bytearray(frame)
    bodies = list(read_frames(buffer))
    assert len(bodies) == 1 and not buffer
    return decode_message(bodies[0])


MESSAGES = [
    ("checking", NewPublication(1, _plan())),
    ("merger", TemplateMsg(1, _plan())),
    ("cloud", AnnouncePublication(4)),
    # A single record is a batch of one, at every hop.
    ("cn-0", RawBatch(0, ("a\tb\tc",), seq=4, ordinal=9, epoch=2)),
    ("cn-1", RawBatch(0, (Record(("x", 1, 371, "none")),))),
    ("checking", PairBatch(0, (Pair(0, 5, _encrypted(), dummy=True),))),
    ("cloud", ToCloudBatch(0, ((5, _encrypted()),))),
    ("merger", RemovedRecord(0, 5, _encrypted())),
    ("cn-0", PublishingMsg(2)),
    ("checking", CnPublishing(2, 1)),
    ("checking", NodeDown(2, 1)),
    ("merger", AlSnapshot(2, (1, 2, 3, 4))),
    ("cloud", BufferFlush(2, ((0, _encrypted()), (1, _encrypted())))),
    ("cn-2", DoneMsg(2)),
    # Batch frames (docs/BATCHING.md): one frame per batch on the wire.
    ("cn-0", RawBatch(0, ("a\tb\tc", Record(("x", 1, 371, "none")), "d\te"))),
    ("cn-1", RawBatch(3, ())),
    (
        "checking",
        PairBatch(
            1,
            (Pair(1, 5, _encrypted(), dummy=True), Pair(1, 2, _encrypted())),
        ),
    ),
    ("cloud", ToCloudBatch(2, ((0, _encrypted()), (1, _encrypted())))),
]


@pytest.mark.parametrize(
    ("destination", "message"),
    MESSAGES,
    ids=[type(m).__name__ + "-" + d for d, m in MESSAGES],
)
def test_message_roundtrip(destination, message):
    got_destination, got_message = _roundtrip(destination, message)
    assert got_destination == destination
    assert got_message == message


def test_merged_publication_roundtrip():
    domain = AttributeDomain(0, 40, 10)
    tree = IndexTree(domain, fanout=4)
    tree.set_leaf_counts([3, -1, 5, 2])
    array = OverflowArray(1, capacity=2)
    array.add_removed(_encrypted())
    array.seal(lambda: _encrypted(), rng=random.Random(1))
    destination, message = _roundtrip(
        "cloud", MergedPublication(7, tree, {1: array})
    )
    assert destination == "cloud"
    assert message.publication == 7
    assert [leaf.count for leaf in message.tree.leaves] == [3, -1, 5, 2]
    assert message.tree.root.count == tree.root.count
    assert message.overflow[1].capacity == 2
    assert len(message.overflow[1].entries) == 2


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
            (RawBatch(0, ("a",), seq=1, ordinal=1, epoch=0), "seq"),
            (RawBatch(0, ("a",), seq=1, ordinal=1, epoch=0), "ord"),
            (PairBatch(0, (), seq=1, epoch=0, node=2), "node"),
            (PublishingMsg(0, last_seq=3, epoch=1, nodes=(0,)), "last"),
            (PublishingMsg(0, last_seq=3, epoch=1, nodes=(0,)), "nodes"),
        ],
    )
    def test_frame_missing_a_stamp_rejected(self, message, stamp):
        """Every peer stamps its frames; one without is malformed, not
        an unstamped message."""
        (body,) = read_frames(bytearray(encode_message("cn-0", message)))
        envelope = json.loads(body)
        del envelope["payload"][stamp]
        with pytest.raises(WireError):
            decode_message(json.dumps(envelope).encode())


@settings(max_examples=40)
@given(
    publication=st.integers(min_value=0, max_value=10**6),
    leaf=st.integers(min_value=0, max_value=10**6),
    ciphertext=st.binary(min_size=1, max_size=300),
    dummy=st.booleans(),
)
def test_pair_roundtrip_property(publication, leaf, ciphertext, dummy):
    """Pairs with arbitrary ciphertext bytes survive the wire."""
    pair = Pair(
        publication,
        leaf,
        EncryptedRecord(leaf, ciphertext, publication=publication),
        dummy=dummy,
    )
    message = PairBatch(publication, (pair,))
    _, decoded = _roundtrip("checking", message)
    assert decoded == message


@settings(max_examples=40)
@given(
    publication=st.integers(min_value=0, max_value=10**6),
    items=st.lists(
        st.one_of(
            st.text(max_size=60).filter(lambda s: "\n" not in s),
            st.builds(
                lambda v, flag: Record((v, 1, 371, "none"), flag=flag),
                st.sampled_from(["a", "b", "d"]),
                st.sampled_from([0, -1]),  # REAL_FLAG / DUMMY_FLAG
            ),
        ),
        max_size=12,
    ),
)
def test_raw_batch_roundtrip_property(publication, items):
    """Mixed line/record batches of any size survive the wire — order,
    item kinds and dummy flags intact, as one frame."""
    message = RawBatch(publication, tuple(items))
    frame = encode_message("cn-0", message)
    buffer = bytearray(frame)
    assert len(list(read_frames(bytearray(frame)))) == 1  # one TCP frame
    _, decoded = _roundtrip("cn-0", message)
    assert decoded == message
    assert [type(item) for item in decoded.items] == [
        type(item) for item in items
    ]
