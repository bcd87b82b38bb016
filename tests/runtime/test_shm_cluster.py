"""CheckingGate checks written against the gate's original
shared-memory home.

The shared-memory runtime is retired; :class:`CheckingGate` now lives in
``repro.runtime.gate`` and fronts the checking node of the threaded and
TCP runtimes.  These cases keep their original names and complement
``tests/runtime/test_gate.py`` (empty publications, multi-gate
``pending`` accounting, three-node ack relaxation).
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
        self.delivered = []

    def __call__(self, message):
        self.delivered.append(message)
        return []


def _batch(seq: int, publication: int = 0) -> PairBatch:
    return PairBatch(publication, (), seq=seq)


class TestCheckingGate:
    def test_batches_delivered_in_seq_order(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        gate.feed(_batch(2))
        gate.feed(_batch(1))
        assert recorder.delivered == []  # seq 0 still missing
        gate.feed(_batch(0))
        assert [m.seq for m in recorder.delivered] == [0, 1, 2]
        assert gate.next_seq == 3

    def test_redispatch_duplicates_dropped(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        gate.feed(_batch(0))
        gate.feed(_batch(0))  # already delivered
        gate.feed(_batch(2))
        gate.feed(_batch(2))  # already buffered
        gate.feed(_batch(1))
        assert [m.seq for m in recorder.delivered] == [0, 1, 2]
        assert gate.duplicates == 2

    def test_publishing_waits_for_every_seq(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        publishing = PublishingMsg(0, last_seq=1)
        gate.feed(publishing)
        assert recorder.delivered == []
        gate.feed(_batch(0))
        assert publishing not in recorder.delivered  # seq 1 outstanding
        gate.feed(_batch(1))
        assert recorder.delivered[-1] is publishing

    def test_empty_publication_publishes_immediately(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        publishing = PublishingMsg(0, last_seq=-1)  # no batches dispatched
        gate.feed(publishing)
        assert recorder.delivered == [publishing]

    def test_cn_ack_waits_for_its_publishing(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        ack = CnPublishing(0, node_id=1)
        gate.feed(ack)
        assert recorder.delivered == []
        gate.feed(PublishingMsg(0, last_seq=-1))
        assert recorder.delivered[-1] is ack

    def test_new_publication_waits_for_finalisation(self):
        """The next interval's announcement must not overtake the
        previous one's randomer flush (an RNG draw)."""
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=2)
        gate.feed(PublishingMsg(0, last_seq=-1))
        announcement = NewPublication(1, plan=None)
        gate.feed(announcement)
        assert announcement not in recorder.delivered
        gate.feed(CnPublishing(0, node_id=0))
        assert announcement not in recorder.delivered  # node 1 outstanding
        gate.feed(CnPublishing(0, node_id=1))
        assert recorder.delivered[-1] is announcement
        assert gate.pending == 0

    def test_node_down_relaxes_the_ack_gate(self):
        recorder = _Recorder()
        gate = CheckingGate(recorder, num_nodes=3)
        gate.feed(PublishingMsg(0, last_seq=-1))
        gate.feed(NewPublication(1, plan=None))
        gate.feed(CnPublishing(0, node_id=0))
        down = NodeDown(0, node_id=1)
        gate.feed(down)
        assert down in recorder.delivered  # passes through immediately
        gate.feed(CnPublishing(0, node_id=2))
        assert isinstance(recorder.delivered[-1], NewPublication)

    def test_pending_counts_every_gate(self):
        gate = CheckingGate(_Recorder(), num_nodes=2)
        gate.feed(_batch(5))
        gate.feed(PublishingMsg(0, last_seq=5))
        gate.feed(CnPublishing(0, node_id=0))
        gate.feed(NewPublication(1, plan=None))
        assert gate.pending == 4

