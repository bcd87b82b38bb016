"""Unit tests for the checking-side ordering gate (repro.runtime.gate).

The :class:`CheckingGate` is the staleness and ordering authority in
front of the checking node: it re-serialises parallel PairBatch streams
by dispatch seq, dedups crash-redispatch twins, discards stale output
of crashed incarnations, and holds control messages until their gates
clear (docs/PROTOCOL.md).  These tests drive it with a recording
handler, no real checking node behind it.
"""

from __future__ import annotations

from repro.core.messages import (
    CnPublishing,
    MembershipMsg,
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


def _batch(seq, *, publication=0, epoch=0, node=0):
    return PairBatch(publication, (), seq=seq, epoch=epoch, node=node)


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


class TestStaleness:
    def test_batch_below_join_floor_discarded(self):
        gate, recorder = _gate()
        gate.feed(MembershipMsg(epoch=3, members=(0, 1), joined=((0, 3),)))
        gate.feed(_batch(0, epoch=2, node=0))  # dead incarnation's output
        assert gate.stale_discards == 1
        assert not any(isinstance(m, PairBatch) for m in recorder.seen)
        # The discarded seq is NOT consumed: its redispatch twin (same
        # records, same seq, produced by a survivor) must still deliver.
        gate.feed(_batch(0, epoch=2, node=1))
        assert [m.seq for m in recorder.seen if isinstance(m, PairBatch)] == [0]

    def test_batch_at_floor_admitted(self):
        gate, recorder = _gate()
        gate.feed(MembershipMsg(epoch=3, members=(0, 1), joined=((0, 3),)))
        gate.feed(_batch(0, epoch=3, node=0))
        assert gate.stale_discards == 0
        assert any(isinstance(m, PairBatch) for m in recorder.seen)

    def test_unstamped_epoch_never_stale(self):
        gate, recorder = _gate()
        gate.feed(MembershipMsg(epoch=3, members=(0, 1), joined=((0, 3),)))
        gate.feed(PairBatch(0, (), seq=0, epoch=-1, node=-1))
        assert gate.stale_discards == 0

    def test_floors_are_monotone(self):
        gate, _ = _gate()
        gate.feed(MembershipMsg(epoch=5, members=(0,), joined=((0, 5),)))
        # A delayed, older snapshot must not lower the floor.
        gate.feed(MembershipMsg(epoch=2, members=(0,), joined=((0, 2),)))
        gate.feed(_batch(0, epoch=3, node=0))
        assert gate.stale_discards == 1

    def test_membership_forwarded_with_joined_stripped(self):
        gate, recorder = _gate()
        gate.feed(
            MembershipMsg(
                epoch=4, members=(0, 1), down=(1,), joined=((1, 4),)
            )
        )
        (forwarded,) = recorder.seen
        assert isinstance(forwarded, MembershipMsg)
        assert forwarded.epoch == 4
        assert forwarded.down == (1,)
        # The gate is the staleness authority; the checking node's own
        # floors stay unarmed behind it.
        assert forwarded.joined == ()


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
        gate.feed(PublishingMsg(0, last_seq=1, nodes=(0, 1)))
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

    def test_node_down_absolves_missing_ack(self):
        gate, recorder = _gate(num_nodes=2)
        publishing = PublishingMsg(0, last_seq=-1, nodes=(0, 1))
        gate.feed(publishing)
        assert recorder.seen == [publishing]  # no batch to wait for
        gate.feed(CnPublishing(0, node_id=0))
        gate.feed(NewPublication(1, plan=None))
        down = NodeDown(0, node_id=1)  # node 1 will never ack
        gate.feed(down)
        assert down in recorder.seen  # delivered at once, never held
        assert any(isinstance(m, NewPublication) for m in recorder.seen)

    def test_rejoin_keeps_old_publication_absolved(self):
        """A node that rejoins is alive for *future* intervals only: the
        publication it missed stays absolved, or finalisation would wait
        forever for an ack the new incarnation cannot send."""
        gate, recorder = _gate(num_nodes=2)
        gate.feed(PublishingMsg(0, last_seq=-1, nodes=(0, 1)))
        gate.feed(NodeDown(0, node_id=1))
        # Rejoin: node 1 leaves the down set under the new epoch.
        gate.feed(MembershipMsg(epoch=2, members=(0, 1), joined=((1, 2),)))
        gate.feed(CnPublishing(0, node_id=0))
        gate.feed(NewPublication(1, plan=None))
        assert any(isinstance(m, NewPublication) for m in recorder.seen)
