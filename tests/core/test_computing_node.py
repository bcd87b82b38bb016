"""Computing node tests: parse/offset/encrypt, publish/done buffering."""

import pytest

from repro.core.computing_node import ComputingNode
from repro.core.messages import DoneMsg, PairBatch, PublishingMsg, RawBatch
from repro.records.record import Record, make_dummy
from repro.records.serialize import render_raw_line


@pytest.fixture
def node(flu_config, fast_cipher):
    return ComputingNode(0, flu_config, fast_cipher)


def _raw(flu_config, value=371, publication=0):
    record = Record(("p", 1, value, "none"))
    return RawBatch(publication, (render_raw_line(record, flu_config.schema),))


class TestProcessing:
    def test_raw_line_becomes_pair(self, node, flu_config):
        out = node.on_raw_batch(_raw(flu_config, value=371))
        assert len(out) == 1
        destination, batch = out[0]
        assert destination == "checking"
        assert isinstance(batch, PairBatch)
        assert len(batch) == 1
        assert batch.leaves == (flu_config.domain.leaf_offset(371),)
        assert batch.dummies == b"\x00"
        assert node.parsed == 1
        assert node.encrypted == 1

    def test_pre_built_record_skips_parsing(self, node, flu_config):
        dummy = make_dummy(flu_config.schema, 380)
        out = node.on_raw_batch(RawBatch(0, (dummy,)))
        (_, batch), = out
        assert batch.dummies == b"\x01"
        assert node.parsed == 0  # no raw line parsed
        assert node.encrypted == 1

    def test_ciphertext_decrypts_to_record(self, node, flu_config, fast_cipher):
        (_, batch), = node.on_raw_batch(_raw(flu_config, value=402))
        (ciphertext,) = batch.ciphertexts
        from repro.records.serialize import deserialize_record

        record = deserialize_record(
            fast_cipher.decrypt(ciphertext), flu_config.schema
        )
        assert record.values[2] == 402

    def test_leaf_offset_in_clear(self, node, flu_config):
        """The pair exposes the leaf offset (and nothing else) in clear."""
        (_, batch), = node.on_raw_batch(_raw(flu_config, value=355))
        assert batch.leaves == (flu_config.domain.leaf_offset(355),)
        (ciphertext,) = batch.ciphertexts
        assert type(ciphertext) is bytes and b"355" not in ciphertext


class TestPublishBoundary:
    def test_publishing_notifies_checking(self, node):
        out = node.on_publishing(PublishingMsg(0))
        (destination, message), = out
        assert destination == "checking"
        assert message.publication == 0
        assert message.node_id == 0
        assert node.waiting_for_done

    def test_pairs_held_while_waiting(self, node, flu_config):
        node.on_publishing(PublishingMsg(0))
        out = node.on_raw_batch(_raw(flu_config, publication=1))
        assert out == []
        assert node.held_pairs == 1

    def test_done_flushes_held_pairs(self, node, flu_config):
        node.on_publishing(PublishingMsg(0))
        node.on_raw_batch(_raw(flu_config, publication=1))
        node.on_raw_batch(_raw(flu_config, publication=1))
        out = node.on_done(DoneMsg(0))
        assert len(out) == 2
        assert all(dest == "checking" for dest, _ in out)
        assert node.held_pairs == 0
        assert not node.waiting_for_done

    def test_held_records_still_processed(self, node, flu_config):
        """The paper: during the wait, data is processed (parsed +
        encrypted) and only the *send* is deferred."""
        node.on_publishing(PublishingMsg(0))
        node.on_raw_batch(_raw(flu_config, publication=1))
        assert node.parsed == 1
        assert node.encrypted == 1

    def test_stale_done_does_not_release_current_hold(
        self, node, flu_config
    ):
        """A done for an older publication than the one being waited on
        (elastic membership: addressed to a previous incarnation of
        this node id) must not leak the held pairs past the current
        publishing barrier."""
        node.on_publishing(PublishingMsg(1))
        node.on_raw_batch(_raw(flu_config, publication=2))
        assert node.on_done(DoneMsg(0)) == []
        assert node.waiting_for_done
        assert node.held_pairs == 1
        out = node.on_done(DoneMsg(1))
        assert len(out) == 1
        assert not node.waiting_for_done
