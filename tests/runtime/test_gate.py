"""Unit tests for the checking-side ordering gate (repro.runtime.gate).

The :class:`CheckingGate` is the ordering authority in front of the
checking node: it re-serialises parallel PairBatch streams by dispatch
seq, dedups crash-redispatch twins, and holds control messages until
their gates clear (docs/PROTOCOL.md).  These tests drive it with a recording
handler, no real checking node behind it.
"""

from __future__ import annotations

from repro.core.messages import (
    CnPublishing,
    NewPublication,
    NodeDown,
    PairBatch,
    PublishingMsg,
)
from repro.runtime.gate import CheckingGate


class _Recorder:
    """Stand-in handler: records delivery order, emits nothing."""

    def __init__(self):
        self.seen = []

    def __call__(self, message):
        self.seen.append(message)
        return []


def _batch(seq, *, publication=0):
    return PairBatch(publication, (), seq=seq)


def _gate(num_nodes=2):
    recorder = _Recorder()
    return CheckingGate(recorder, num_nodes), recorder


class TestSeqOrdering:
    def test_batches_delivered_in_seq_order(self):
        gate, recorder = _gate()
        gate.feed(_batch(1))
        assert recorder.seen == []  # held: seq 0 missing
        gate.feed(_batch(0))
        assert [m.seq for m in recorder.seen] == [0, 1]
        assert gate.pending == 0
        assert gate.next_seq == 2  # past every delivered batch

    def test_duplicate_seq_dropped(self):
        gate, recorder = _gate()
        gate.feed(_batch(0))
        gate.feed(_batch(0))  # crash-redispatch twin, already delivered
        gate.feed(_batch(2))
        gate.feed(_batch(2))  # twin of a *buffered* batch
        assert gate.duplicates == 2
        assert [m.seq for m in recorder.seen] == [0]

    def test_unstamped_batch_passes_through(self):
        gate, recorder = _gate()
        gate.feed(PairBatch(0, (), seq=-1))
        assert len(recorder.seen) == 1

    def test_unknown_messages_pass_through(self):
        gate, recorder = _gate()
        marker = object()
        gate.feed(marker)
        assert recorder.seen == [marker]


class TestControlGates:
    def test_publishing_waits_for_last_seq(self):
        gate, recorder = _gate()
        gate.feed(PublishingMsg(0, last_seq=1))
        gate.feed(_batch(0))
        assert not any(
            isinstance(m, PublishingMsg) for m in recorder.seen
        )
        gate.feed(_batch(1))
        kinds = [type(m).__name__ for m in recorder.seen]
        assert kinds == ["PairBatch", "PairBatch", "PublishingMsg"]

    def test_cn_publishing_waits_for_its_broadcast(self):
        gate, recorder = _gate()
        gate.feed(CnPublishing(0, node_id=1))
        assert recorder.seen == []
        gate.feed(PublishingMsg(0, last_seq=-1))
        kinds = [type(m).__name__ for m in recorder.seen]
        assert kinds == ["PublishingMsg", "CnPublishing"]

    def test_new_publication_waits_for_finalisation(self):
        gate, recorder = _gate(num_nodes=2)
        gate.feed(_batch(1))  # held: seq 0 missing
        gate.feed(PublishingMsg(0, last_seq=1))
        gate.feed(CnPublishing(0, node_id=0))
        gate.feed(NewPublication(1, plan=None))
        # Each gate holds one: batch, broadcast, ack and announcement.
        assert gate.pending == 4
        gate.feed(_batch(0))
        assert not any(
            isinstance(m, NewPublication) for m in recorder.seen
        )
        gate.feed(CnPublishing(0, node_id=1))  # last expected ack
        assert any(isinstance(m, NewPublication) for m in recorder.seen)
        assert gate.pending == 0

    def test_empty_publication_publishes_immediately(self):
        gate, recorder = _gate()
        publishing = PublishingMsg(0, last_seq=-1)  # no batches dispatched
        gate.feed(publishing)
        assert recorder.seen == [publishing]

    def test_pending_counts_every_gate(self):
        gate, _ = _gate()
        gate.feed(_batch(5))
        gate.feed(PublishingMsg(0, last_seq=5))
        gate.feed(CnPublishing(0, node_id=0))
        gate.feed(NewPublication(1, plan=None))
        assert gate.pending == 4

    def test_node_down_relaxes_the_ack_gate(self):
        gate, recorder = _gate(num_nodes=3)
        gate.feed(PublishingMsg(0, last_seq=-1))
        gate.feed(NewPublication(1, plan=None))
        gate.feed(CnPublishing(0, node_id=0))
        down = NodeDown(0, node_id=1)
        gate.feed(down)
        assert down in recorder.seen  # passes through immediately
        gate.feed(CnPublishing(0, node_id=2))
        assert isinstance(recorder.seen[-1], NewPublication)

    def test_node_down_absolves_missing_ack(self):
        gate, recorder = _gate(num_nodes=2)
        publishing = PublishingMsg(0, last_seq=-1)
        gate.feed(publishing)
        assert recorder.seen == [publishing]  # no batch to wait for
        gate.feed(CnPublishing(0, node_id=0))
        gate.feed(NewPublication(1, plan=None))
        down = NodeDown(0, node_id=1)  # node 1 will never ack
        gate.feed(down)
        assert down in recorder.seen  # delivered at once, never held
        assert any(isinstance(m, NewPublication) for m in recorder.seen)


class TestBackToBackPublications:
    def test_announcement_waits_only_for_earlier_publications(self):
        """Publications closed back to back: ``PublishingMsg(2)`` waits
        for pairs the computing nodes hold until *done(1)*, and *done(1)*
        needs ``NewPublication(1)`` delivered — so a later publication's
        pending broadcast must not hold an earlier announcement back."""
        gate, recorder = _gate(num_nodes=2)

        def announced():
            return [
                m.publication
                for m in recorder.seen
                if isinstance(m, NewPublication)
            ]

        for publication in range(3):  # batch ``p`` is publication p's
            gate.feed(PublishingMsg(publication, last_seq=publication))
            gate.feed(NewPublication(publication + 1, plan=None))
        gate.feed(_batch(0))
        gate.feed(CnPublishing(0, node_id=0))
        gate.feed(CnPublishing(0, node_id=1))
        # Publication 0 finalised: 1 is announced while PublishingMsg(2)
        # still waits; 2 waits for publication 1's finalisation.
        assert announced() == [1]
        gate.feed(_batch(1, publication=1))
        gate.feed(CnPublishing(1, node_id=0))
        assert announced() == [1]
        gate.feed(CnPublishing(1, node_id=1))
        assert announced() == [1, 2]
        gate.feed(_batch(2, publication=2))
        gate.feed(CnPublishing(2, node_id=0))
        gate.feed(CnPublishing(2, node_id=1))
        assert announced() == [1, 2, 3]
        assert gate.pending == 0
