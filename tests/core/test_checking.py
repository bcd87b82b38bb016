"""Checking node tests: admission, randomer wiring, AL/ALN updates,
finalisation."""

import random
from dataclasses import replace

import pytest

from repro.core.checking import CheckingNode, ProtocolError
from repro.core.merger import Merger
from repro.core.messages import (
    Admitted,
    AlSnapshot,
    AnnouncePublication,
    BufferFlush,
    CnPublishing,
    DoneMsg,
    NewPublication,
    NodeDown,
    PairBatch,
    PublishingMsg,
    RemovedBatch,
    TemplateMsg,
)
from repro.durability.checkpoint import (
    FORMAT,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.index.perturb import draw_noise_plan
from repro.index.tree import IndexTree
from tests.columns import pair_batch


@pytest.fixture
def checking(flu_config):
    return CheckingNode(flu_config, rng=random.Random(9))


@pytest.fixture
def plan(flu_config):
    tree = IndexTree(flu_config.domain, fanout=flu_config.fanout)
    return draw_noise_plan(tree, flu_config.epsilon, rng=random.Random(31))


def _pair(offset: int, dummy: bool = False) -> tuple[int, bytes, bool]:
    return (offset, bytes(32), dummy)


def _deliver(checking, pair, publication: int = 0):
    """One pair, as the only thing that carries one: a batch of one."""
    return checking.on_pair_batch(pair_batch(publication, (pair,)))


def _batch(seq: int, publication: int = 0) -> PairBatch:
    """An empty stamped batch: admission reads only its seq."""
    return PairBatch(publication, seq=seq)


def _applied(out) -> list[tuple[str, int]]:
    """What an outbox shows was applied, in order: a batch admitted, a
    publication announced or finalised."""
    events = []
    for _, message in out:
        if isinstance(message, Admitted):
            events.append(("admitted", message.seq))
        elif isinstance(message, AnnouncePublication):
            events.append(("announced", message.publication))
        elif isinstance(message, AlSnapshot):
            events.append(("finalised", message.publication))
    return events


def _finalise(checking, flu_config, publication=0):
    """Close the interval, then report from every node."""
    out = checking.on_publishing(PublishingMsg(publication))
    for node_id in range(flu_config.num_computing_nodes):
        out.extend(
            checking.on_cn_publishing(CnPublishing(publication, node_id))
        )
    return out


@pytest.fixture
def pair_of_nodes(flu_config):
    """A checking node in front of two computing nodes."""
    config = replace(flu_config, num_computing_nodes=2)
    return CheckingNode(config, rng=random.Random(9))


class TestAdmission:
    """:meth:`CheckingNode.handle` holds each message until its rule
    clears, then applies it (the rules are the class docstring's)."""

    def test_batches_delivered_in_seq_order(self, checking, plan):
        checking.handle(NewPublication(0, plan))
        assert checking.handle(_batch(1)) == []  # held: seq 0 missing
        out = checking.handle(_batch(0))
        assert _applied(out) == [("admitted", 0), ("admitted", 1)]
        assert checking.pending == 0
        assert checking.next_seq == 2  # past every applied batch

    def test_duplicate_seq_dropped(self, checking, plan):
        checking.handle(NewPublication(0, plan))
        checking.handle(_batch(0))
        assert checking.handle(_batch(0)) == []  # a re-send twin, applied
        checking.handle(_batch(2))
        assert checking.handle(_batch(2)) == []  # twin of a *held* batch
        assert checking.duplicates == 2
        assert (checking.next_seq, checking.pending) == (1, 1)

    def test_unstamped_batch_passes_through(self, checking, plan):
        checking.handle(NewPublication(0, plan))
        checking.handle(pair_batch(0, (_pair(3),)))  # seq -1
        assert len(checking.state_of(0).randomer) == 1
        assert (checking.next_seq, checking.pending) == (0, 0)

    def test_unknown_messages_pass_through(self, checking):
        """Nothing holds a message no rule names: the route table
        refuses it at once."""
        with pytest.raises(TypeError, match="cannot handle object"):
            checking.handle(object())
        assert checking.pending == 0

    def test_publishing_waits_for_last_seq(self, checking, plan):
        checking.handle(NewPublication(0, plan))
        checking.handle(PublishingMsg(0, last_seq=1))
        checking.handle(_batch(0))
        assert not checking.state_of(0).interval_closed
        checking.handle(_batch(1))
        assert checking.state_of(0).interval_closed
        assert checking.pending == 0

    def test_cn_publishing_waits_for_its_announcement(
        self, pair_of_nodes, plan
    ):
        """A report for an announced publication is recorded at once,
        before the interval closes; one for a publication whose
        announcement is held waits for it."""
        node = pair_of_nodes
        node.handle(NewPublication(0, plan))
        node.handle(CnPublishing(0, node_id=0))
        assert node.state_of(0).cn_reported == {0}
        node.handle(NewPublication(1, plan))  # held: 0 is open
        node.handle(CnPublishing(1, node_id=1))  # held: 1 not announced
        assert node.pending == 2
        node.handle(PublishingMsg(0))
        out = node.handle(CnPublishing(0, node_id=1))
        assert _applied(out) == [("finalised", 0), ("announced", 1)]
        assert node.state_of(1).cn_reported == {1}
        assert node.pending == 0

    def test_new_publication_waits_for_finalisation(
        self, pair_of_nodes, plan
    ):
        node = pair_of_nodes
        node.handle(NewPublication(0, plan))
        node.handle(_batch(1))  # held: seq 0 missing
        node.handle(PublishingMsg(0, last_seq=1))  # held: seq 1 missing
        node.handle(CnPublishing(0, node_id=0))  # recorded
        node.handle(NewPublication(1, plan))  # held: 0 is open
        assert node.pending == 3
        out = node.handle(_batch(0))
        assert _applied(out) == [("admitted", 0), ("admitted", 1)]
        assert node.state_of(0).interval_closed
        out = node.handle(CnPublishing(0, node_id=1))  # last report
        assert _applied(out) == [("finalised", 0), ("announced", 1)]
        assert node.pending == 0

    def test_empty_publication_publishes_immediately(self, checking, plan):
        checking.handle(NewPublication(0, plan))
        checking.handle(PublishingMsg(0, last_seq=-1))  # nothing dispatched
        assert checking.state_of(0).interval_closed

    def test_empty_publication_waits_for_its_announcement(
        self, pair_of_nodes, plan
    ):
        """Publication 1 dispatches no batch, so its *publishing* notice
        clears the seq rule while its announcement waits for
        publication 0's finalisation: it waits for the announcement
        too."""
        node = pair_of_nodes
        node.handle(NewPublication(0, plan))
        node.handle(_batch(0))
        node.handle(PublishingMsg(0, last_seq=0))
        node.handle(NewPublication(1, plan))  # held: 0 is open
        node.handle(PublishingMsg(1, last_seq=0))  # held: 1 not announced
        node.handle(NewPublication(2, plan))  # held: 0 and 1 are open
        assert node.pending == 3
        node.handle(CnPublishing(0, node_id=0))
        out = node.handle(CnPublishing(0, node_id=1))
        assert _applied(out) == [("finalised", 0), ("announced", 1)]
        assert node.state_of(1).interval_closed
        node.handle(CnPublishing(1, node_id=0))
        out = node.handle(CnPublishing(1, node_id=1))
        assert _applied(out) == [("finalised", 1), ("announced", 2)]
        assert node.pending == 0

    def test_pending_counts_every_held_message(self, checking, plan):
        checking.handle(NewPublication(0, plan))
        checking.handle(_batch(5))
        checking.handle(PublishingMsg(0, last_seq=5))
        checking.handle(NewPublication(1, plan))
        checking.handle(CnPublishing(1, node_id=0))
        assert checking.pending == 4

    def test_node_down_stands_in_for_a_report(self, checking, plan):
        checking.handle(NewPublication(0, plan))
        checking.handle(PublishingMsg(0, last_seq=-1))
        checking.handle(NewPublication(1, plan))
        checking.handle(CnPublishing(0, node_id=0))
        assert checking.handle(NodeDown(0, node_id=1)) == []
        assert checking.pending == 1  # applied at once, never held
        out = checking.handle(CnPublishing(0, node_id=2))
        assert _applied(out) == [("finalised", 0), ("announced", 1)]

    def test_node_down_absolves_missing_ack(self, pair_of_nodes, plan):
        node = pair_of_nodes
        node.handle(NewPublication(0, plan))
        node.handle(PublishingMsg(0, last_seq=-1))  # applied at once
        node.handle(CnPublishing(0, node_id=0))
        node.handle(NewPublication(1, plan))
        out = node.handle(NodeDown(0, node_id=1))  # 1 will never report
        assert _applied(out) == [("finalised", 0), ("announced", 1)]
        out = [m for _, m in out if isinstance(m, DoneMsg)]
        assert out == [DoneMsg(0)]  # to cn-0 alone

    def test_reports_alone_do_not_finalise(self, pair_of_nodes, plan):
        """Finalisation needs the dispatcher's own *publishing* notice:
        every node's report is not enough."""
        node = pair_of_nodes
        node.handle(NewPublication(0, plan))
        assert node.handle(CnPublishing(0, node_id=0)) == []
        assert node.handle(CnPublishing(0, node_id=1)) == []
        out = node.handle(PublishingMsg(0))
        assert _applied(out) == [("finalised", 0)]

    def test_messages_of_a_publication_never_announced_raise(
        self, flu_config, plan
    ):
        """Neither open nor held for announcement: a protocol error."""
        for message in (
            _batch(0),
            PublishingMsg(0),
            CnPublishing(0, node_id=0),
        ):
            node = CheckingNode(flu_config, rng=random.Random(9))
            with pytest.raises(ProtocolError, match="publication 0"):
                node.handle(message)
        node = CheckingNode(flu_config, rng=random.Random(9))
        node.handle(NewPublication(0, plan))
        with pytest.raises(ProtocolError, match="never announced"):
            node.handle(CnPublishing(1, node_id=0))


class TestBackToBackPublications:
    def test_announcement_waits_only_for_earlier_publications(
        self, pair_of_nodes, plan
    ):
        """Publications closed back to back: ``PublishingMsg(2)`` waits
        for pairs the computing nodes hold until *done(1)*, and *done(1)*
        needs ``NewPublication(1)`` applied — so a later publication's
        held broadcast must not hold an earlier announcement back."""
        node = pair_of_nodes
        announced = []

        def feed(message):
            announced.extend(
                publication
                for event, publication in _applied(node.handle(message))
                if event == "announced"
            )

        feed(NewPublication(0, plan))
        for publication in range(3):  # batch ``p`` is publication p's
            feed(PublishingMsg(publication, last_seq=publication))
            feed(NewPublication(publication + 1, plan))
        feed(_batch(0))
        feed(CnPublishing(0, node_id=0))
        feed(CnPublishing(0, node_id=1))
        # Publication 0 finalised: 1 is announced while PublishingMsg(2)
        # still waits; 2 waits for publication 1's finalisation.
        assert announced == [0, 1]
        feed(_batch(1, publication=1))
        feed(CnPublishing(1, node_id=0))
        assert announced == [0, 1]
        feed(CnPublishing(1, node_id=1))
        assert announced == [0, 1, 2]
        feed(_batch(2, publication=2))
        feed(CnPublishing(2, node_id=0))
        feed(CnPublishing(2, node_id=1))
        assert announced == [0, 1, 2, 3]
        assert node.pending == 0


class TestNewPublication:
    def test_forwards_template_and_announces(self, checking, plan):
        out = checking.on_new_publication(NewPublication(0, plan))
        kinds = {(dest, type(msg)) for dest, msg in out}
        assert ("merger", TemplateMsg) in kinds
        assert ("cloud", AnnouncePublication) in kinds

    def test_state_initialised_from_plan(self, checking, plan):
        checking.on_new_publication(NewPublication(0, plan))
        state = checking.state_of(0)
        assert state.arrays.aln == list(plan.leaf_noise)
        assert state.randomer.capacity == checking.config.randomer_buffer_size


class TestPairFlow:
    def test_pairs_buffered_until_randomer_full(self, checking, plan):
        checking.on_new_publication(NewPublication(0, plan))
        out = _deliver(checking, _pair(0))
        assert out == []  # absorbed by the randomer

    def test_pair_for_an_unannounced_publication_raises(
        self, checking, flu_config, plan
    ):
        """Admission applies messages in the synchronous driver's order
        (:class:`TestAdmission`), so a pair or a report for a
        publication never announced is a protocol error; a report for a
        finalised one is a straggler."""
        with pytest.raises(ProtocolError, match="publication 0"):
            _deliver(checking, _pair(0))
        with pytest.raises(ProtocolError, match="never announced"):
            checking.on_cn_publishing(CnPublishing(0, 0))
        checking.on_new_publication(NewPublication(0, plan))
        _finalise(checking, flu_config)
        assert checking.on_cn_publishing(CnPublishing(0, 0)) == []
        with pytest.raises(ProtocolError, match="not open"):
            _deliver(checking, _pair(0))
        with pytest.raises(ProtocolError, match="never announced"):
            checking.on_cn_publishing(CnPublishing(1, 0))

    def test_a_stamped_batch_is_admitted_to_the_dispatcher(
        self, checking, plan
    ):
        """Admission answers the dispatcher, which stops retaining the
        batch; an unstamped batch (seq -1) was never retained."""
        checking.on_new_publication(NewPublication(0, plan))
        out = checking.on_pair_batch(pair_batch(0, (_pair(0),), seq=4))
        assert out == [("dispatcher", Admitted(4))]
        assert _deliver(checking, _pair(0)) == []

    def test_eviction_routes_real_record(self, checking, flu_config, plan):
        small = CheckingNode(flu_config, rng=random.Random(9))
        # Shrink the buffer via a tiny config-independent trick: fill
        # beyond capacity and observe routed messages.
        small.on_new_publication(NewPublication(0, plan))
        capacity = small.state_of(0).randomer.capacity
        routed = []
        for index in range(capacity + 50):
            routed.extend(_deliver(small, _pair(0)))
        assert routed, "expected evictions once the buffer filled"
        destinations = {dest for dest, _ in routed}
        assert destinations <= {"cloud", "merger"}


class TestCheckerSemantics:
    def test_negative_leaf_records_go_to_merger(self, checking, flu_config, plan):
        negative = [o for o, n in enumerate(plan.leaf_noise) if n < 0]
        if not negative:
            pytest.skip("no negative leaf in this draw")
        offset = negative[0]
        budget = -plan.leaf_noise[offset]
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_publishing(PublishingMsg(0))
        checking.on_cn_publishing(CnPublishing(0, 0))
        # Feed exactly budget+2 pairs for that leaf, then finalise and
        # count removals routed to the merger.
        for _ in range(budget + 2):
            _deliver(checking, _pair(offset))
        out = []
        for node_id in range(1, flu_config.num_computing_nodes):
            out.extend(checking.on_cn_publishing(CnPublishing(0, node_id)))
        removed = [
            leaf
            for _, m in out
            if isinstance(m, RemovedBatch)
            for leaf in m.leaves
        ]
        assert len(removed) == budget
        snapshot = next(
            m for _, m in out if isinstance(m, AlSnapshot)
        )
        assert snapshot.al[offset] == budget + 2

    def test_dummies_skip_arrays(self, checking, flu_config, plan):
        checking.on_new_publication(NewPublication(0, plan))
        for _ in range(10):
            _deliver(checking, _pair(3, dummy=True))
        out = _finalise(checking, flu_config)
        snapshot = next(m for _, m in out if isinstance(m, AlSnapshot))
        assert snapshot.al[3] == 0
        assert checking.dummies_passed == 10

    def test_unknown_offset_rejected_at_arrays(self, flu_config):
        from repro.index.template import LeafArrays

        arrays = LeafArrays([0, 0])
        with pytest.raises(IndexError):
            arrays.check_and_update(5)


class TestFinalisation:
    def test_waits_for_all_computing_nodes(self, checking, flu_config, plan):
        checking.on_new_publication(NewPublication(0, plan))
        assert checking.on_publishing(PublishingMsg(0)) == []
        for node_id in range(flu_config.num_computing_nodes - 1):
            assert checking.on_cn_publishing(CnPublishing(0, node_id)) == []
        out = checking.on_cn_publishing(
            CnPublishing(0, flu_config.num_computing_nodes - 1)
        )
        assert out  # last report triggers everything

    def test_finalisation_outputs(self, checking, flu_config, plan):
        checking.on_new_publication(NewPublication(0, plan))
        for index in range(5):
            _deliver(checking, _pair(0))
        out = _finalise(checking, flu_config)
        kinds = [type(m) for _, m in out]
        assert kinds.count(AlSnapshot) == 1
        assert kinds.count(BufferFlush) == 1
        assert kinds.count(DoneMsg) == flu_config.num_computing_nodes
        flush = next(m for _, m in out if isinstance(m, BufferFlush))
        removed = [
            leaf
            for _, m in out
            if isinstance(m, RemovedBatch)
            for leaf in m.leaves
        ]
        # Nothing lost: every buffered pair either flushes to the cloud or
        # is diverted to the merger as removed.
        assert len(flush.leaves) + len(removed) == 5
        assert len(flush.ciphertexts) == len(flush.leaves)

    def test_flush_before_al_in_output_order(self, checking, flu_config, plan):
        """The cloud must receive the buffer flush before the merger gets
        the AL — otherwise the merged publication can race ahead of the
        flushed pairs and the cloud would match an incomplete dataset."""
        checking.on_new_publication(NewPublication(0, plan))
        out = _finalise(checking, flu_config)
        kinds = [type(m) for _, m in out]
        assert kinds.index(BufferFlush) < kinds.index(AlSnapshot)

    def test_duplicate_cn_report_ignored(self, checking, flu_config, plan):
        checking.on_new_publication(NewPublication(0, plan))
        assert checking.on_cn_publishing(CnPublishing(0, 0)) == []
        assert checking.on_cn_publishing(CnPublishing(0, 0)) == []

    def test_interleaved_publications(self, checking, flu_config, plan):
        """Asynchronous publishing: pairs of publication 1 may arrive
        while publication 0 finalises."""
        tree = IndexTree(flu_config.domain, fanout=flu_config.fanout)
        plan1 = draw_noise_plan(tree, 1.0, rng=random.Random(77))
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_new_publication(NewPublication(1, plan1))
        _deliver(checking, _pair(2), publication=0)
        _deliver(checking, _pair(3), publication=1)
        out = _finalise(checking, flu_config, publication=0)
        flush = next(m for _, m in out if isinstance(m, BufferFlush))
        removed = [
            leaf
            for _, m in out
            if isinstance(m, RemovedBatch)
            for leaf in m.leaves
        ]
        assert len(flush.leaves) + len(removed) == 1  # only pub 0's pair
        assert len(checking.state_of(1).randomer) == 1


class TestDegradedMode:
    def _node_down(self, publication, node_id):
        return NodeDown(publication, node_id)

    def test_node_down_substitutes_for_cn_report(
        self, checking, flu_config, plan
    ):
        """With cn-1 dead, reports from the survivors plus the NodeDown
        notice finalise the publication."""
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_publishing(PublishingMsg(0))
        _deliver(checking, _pair(2))
        assert checking.on_cn_publishing(CnPublishing(0, 0)) == []
        assert checking.on_node_down(self._node_down(0, 1)) == []
        out = checking.on_cn_publishing(CnPublishing(0, 2))
        assert any(isinstance(m, BufferFlush) for _, m in out)
        assert any(isinstance(m, AlSnapshot) for _, m in out)

    def test_node_down_after_last_survivor_finalises(
        self, checking, flu_config, plan
    ):
        """NodeDown arriving last sweeps the already-complete
        publication immediately."""
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_publishing(PublishingMsg(0))
        assert checking.on_cn_publishing(CnPublishing(0, 0)) == []
        assert checking.on_cn_publishing(CnPublishing(0, 2)) == []
        out = checking.on_node_down(self._node_down(0, 1))
        assert any(isinstance(m, BufferFlush) for _, m in out)

    def test_done_broadcast_skips_dead_nodes(self, checking, flu_config, plan):
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_publishing(PublishingMsg(0))
        checking.on_node_down(self._node_down(0, 1))
        out = []
        for node_id in (0, 2):
            out.extend(checking.on_cn_publishing(CnPublishing(0, node_id)))
        done_destinations = {
            dest for dest, m in out if isinstance(m, DoneMsg)
        }
        assert done_destinations == {"cn-0", "cn-2"}

    def test_dead_set_applies_to_later_publications(
        self, checking, flu_config, plan
    ):
        """The dead set is global: publication n+1 also completes on the
        survivors without a second NodeDown."""
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_node_down(self._node_down(0, 1))
        _finalise(checking, flu_config)  # pub 0 done (reports 0..2)
        checking.on_new_publication(NewPublication(1, plan))
        checking.on_publishing(PublishingMsg(1))
        assert checking.on_cn_publishing(CnPublishing(1, 0)) == []
        out = checking.on_cn_publishing(CnPublishing(1, 2))
        assert any(isinstance(m, BufferFlush) for _, m in out)

    def test_all_dead_requires_interval_close(self, checking, flu_config, plan):
        """Dead-node notices alone never finalise a publication whose
        interval hasn't ended: without any CnPublishing the dispatcher's
        own publishing notice is required."""
        checking.on_new_publication(NewPublication(0, plan))
        _deliver(checking, _pair(1))
        assert checking.on_node_down(self._node_down(0, 0)) == []
        assert checking.on_node_down(self._node_down(0, 1)) == []
        assert checking.on_node_down(self._node_down(0, 2)) == []
        assert checking.state_of(0) is not None  # still open
        out = checking.on_publishing(PublishingMsg(0))
        assert any(isinstance(m, BufferFlush) for _, m in out)

    def test_done_broadcast_still_skips_dead_nodes_with_expected(
        self, checking, flu_config, plan
    ):
        """With the dispatcher's publishing notice in, the expected
        reports are the live fleet's: a node that is down at
        finalisation stays out of the done broadcast."""
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_node_down(self._node_down(0, 1))
        out = []
        checking.on_publishing(PublishingMsg(0))
        for node_id in (0, 2):
            out.extend(checking.on_cn_publishing(CnPublishing(0, node_id)))
        done_destinations = {
            dest for dest, m in out if isinstance(m, DoneMsg)
        }
        assert done_destinations == {"cn-0", "cn-2"}


class TestSnapshotFixedPoint:
    def test_snapshot_restore_snapshot_mid_publication(
        self, flu_config, fast_cipher, plan
    ):
        """``snapshot() → restore() → snapshot()`` is a fixed point, through
        the bytes a checkpoint file is, with everything a checkpoint can hold
        present: randomer residents (dummies among them) and removed
        records at the merger."""
        config = replace(flu_config, delta_prime=0.6)  # a 160-pair randomer
        checking = CheckingNode(config, rng=random.Random(9))
        merger = Merger(config, fast_cipher, rng=random.Random(10))
        source = random.Random(3)
        pairs = [
            (
                source.randrange(config.domain.num_leaves),
                index.to_bytes(4, "little") * 8,
                source.random() < 0.2,
            )
            for index in range(400)
        ]
        out = checking.on_new_publication(NewPublication(0, plan))
        for start in range(0, len(pairs), 64):
            out += checking.on_pair_batch(pair_batch(0, pairs[start : start + 64]))
        for destination, message in out:
            if destination == "merger":
                merger.handle(message)
        assert len(checking.state_of(0).randomer) == 160
        assert sum(checking.state_of(0).randomer.columns()[2])  # dummies
        assert merger.pending_removed()

        restored = CheckingNode(config, rng=random.Random(1))
        for node, fresh in (
            (checking, restored),
            (merger, Merger(config, fast_cipher, rng=random.Random(2))),
        ):
            document = encode_checkpoint({"format": FORMAT, "state": node.snapshot()})
            fresh.restore(decode_checkpoint(document)["state"])
            assert encode_checkpoint({"format": FORMAT, "state": fresh.snapshot()}) == document
        assert restored.buffered_pairs() == checking.buffered_pairs()

    def test_restore_resumes_next_seq(self, checking, flu_config, plan):
        checking.handle(NewPublication(0, plan))
        checking.handle(_batch(0))
        checking.handle(_batch(1))
        restored = CheckingNode(flu_config, rng=random.Random(1))
        restored.restore(checking.snapshot())
        assert restored.next_seq == 2
        assert _applied(restored.handle(_batch(2))) == [("admitted", 2)]

    def test_snapshot_refuses_a_held_message(self, checking, plan):
        checking.handle(NewPublication(0, plan))
        checking.handle(_batch(1))  # held: seq 0 missing
        with pytest.raises(RuntimeError, match="not a quiescent cut"):
            checking.snapshot()
