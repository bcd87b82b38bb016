"""Checking node tests: randomer wiring, AL/ALN updates, finalisation."""

import json
import random
from dataclasses import replace

import pytest

from repro.core.checking import CheckingNode
from repro.core.merger import Merger
from repro.core.messages import (
    AlSnapshot,
    AnnouncePublication,
    BufferFlush,
    CnPublishing,
    CreditGrant,
    DoneMsg,
    MembershipMsg,
    NewPublication,
    NodeDown,
    PublishingMsg,
    RemovedBatch,
    TemplateMsg,
)
from repro.index.perturb import draw_noise_plan
from repro.index.tree import IndexTree
from tests.columns import pair_batch, rows_of


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


def _finalise(checking, flu_config, publication=0):
    out = []
    for node_id in range(flu_config.num_computing_nodes):
        out.extend(
            checking.on_cn_publishing(CnPublishing(publication, node_id))
        )
    return out


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

    def test_early_pair_replayed_on_announcement(self, checking, plan):
        # Under the threaded runtime a pair can race the NewPublication.
        assert _deliver(checking, _pair(0)) == []
        checking.on_new_publication(NewPublication(0, plan))
        assert len(checking.state_of(0).randomer) == 1

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
        assert checking.on_cn_publishing(CnPublishing(0, 0)) == []
        assert checking.on_cn_publishing(CnPublishing(0, 2)) == []
        out = checking.on_node_down(self._node_down(0, 1))
        assert any(isinstance(m, BufferFlush) for _, m in out)

    def test_done_broadcast_skips_dead_nodes(self, checking, flu_config, plan):
        checking.on_new_publication(NewPublication(0, plan))
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
        assert not checking.state_of(0).closed
        out = checking.on_publishing(PublishingMsg(0))
        assert any(isinstance(m, BufferFlush) for _, m in out)

    def test_done_released_to_absolved_live_node(
        self, checking, flu_config, plan
    ):
        """A node absolved for a publication (crashed, then rejoined
        before its close) that still entered the publishing window must
        receive the DoneMsg: finalisation can complete off its
        absolution before its own report is consumed, but the node is
        live, reported, and holds the next publication's pairs against
        exactly this release.  Regression — it used to be excluded from
        the done broadcast and deadlocked every later publication."""
        # Node 2 crashed before this publication was announced (the
        # announcement seeds its absolved set from the dead set), then
        # rejoins: it leaves the dead set but stays absolved here.
        checking.on_node_down(self._node_down(0, 2))
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_membership(
            MembershipMsg(epoch=2, members=(0, 1, 2), joined=((2, 2),))
        )
        # The dispatcher broadcast publishing to the full (rejoined)
        # fleet; reports from nodes 0 and 1 plus node 2's absolution
        # complete the publication before node 2's report arrives.
        checking.on_publishing(PublishingMsg(0, nodes=(0, 1, 2)))
        out = checking.on_cn_publishing(CnPublishing(0, 0))
        out += checking.on_cn_publishing(CnPublishing(0, 1))
        done_destinations = {
            dest for dest, m in out if isinstance(m, DoneMsg)
        }
        assert done_destinations == {"cn-0", "cn-1", "cn-2"}
        # The straggling report of the finalised publication is dropped,
        # not buffered as an early arrival of a future one.
        assert checking.on_cn_publishing(CnPublishing(0, 2)) == []
        assert checking._early_cn == {}

    def test_done_broadcast_still_skips_dead_nodes_with_expected(
        self, checking, flu_config, plan
    ):
        """With a pinned expected set, a node that is genuinely down at
        finalisation stays out of the done broadcast."""
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_node_down(self._node_down(0, 1))
        out = []
        checking.on_publishing(PublishingMsg(0, nodes=(0, 1, 2)))
        for node_id in (0, 2):
            out.extend(checking.on_cn_publishing(CnPublishing(0, node_id)))
        done_destinations = {
            dest for dest, m in out if isinstance(m, DoneMsg)
        }
        assert done_destinations == {"cn-0", "cn-2"}


class TestEpochGate:
    """The membership-epoch staleness check gates every pair handler:
    output of a crashed incarnation (epoch stamp below the producer's
    rejoin floor) is counted and dropped, never buffered — its records
    are already covered by the crash redispatch."""

    REJOIN = MembershipMsg(epoch=2, members=(0, 1, 2), joined=((2, 2),))

    @staticmethod
    def _buffered(state):
        return state.randomer.columns(), state.arrays.state()

    def test_stale_batch_grants_credits_but_is_not_buffered(
        self, flu_config, plan
    ):
        checking = CheckingNode(
            replace(flu_config, credit_window=64), rng=random.Random(9)
        )
        checking.on_node_down(NodeDown(0, 2))
        checking.on_new_publication(NewPublication(0, plan))
        checking.on_membership(self.REJOIN)
        pairs = (_pair(1), _pair(4))
        before = self._buffered(checking.state_of(0))

        out = checking.on_pair_batch(pair_batch(0, pairs, epoch=1, node=2))
        # The crashed incarnation's dispatch charged the credit window,
        # so the grant still flows; nothing else does.
        assert out == [("dispatcher", CreditGrant(0, len(pairs)))]
        assert self._buffered(checking.state_of(0)) == before
        assert checking.stale_batches_discarded == 1
        assert checking.stale_pairs_discarded == len(pairs)

        checking.on_pair_batch(pair_batch(0, pairs, epoch=2, node=2))
        assert rows_of(*checking.state_of(0).randomer.columns()) == list(pairs)
        assert checking.stale_batches_discarded == 1


class TestSnapshotFixedPoint:
    def test_snapshot_restore_snapshot_mid_publication(
        self, flu_config, fast_cipher, plan
    ):
        """``snapshot() → restore() → snapshot()`` is a fixed point, through
        the JSON a checkpoint is, with everything a checkpoint can hold
        present: randomer residents (dummies among them), pairs that beat
        their announcement, and removed records at the merger."""
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
        for start in range(0, 300, 64):
            out += checking.on_pair_batch(pair_batch(0, pairs[start : start + 64]))
        checking.on_pair_batch(pair_batch(1, pairs[300:350]))
        checking.on_pair_batch(pair_batch(1, pairs[350:]))
        for destination, message in out:
            if destination == "merger":
                merger.handle(message)
        assert len(checking.state_of(0).randomer) == 160
        assert sum(checking.state_of(0).randomer.columns()[2])  # dummies
        assert len(checking._early_pairs[1][0]) == 100
        assert merger.pending_removed()

        restored = CheckingNode(config, rng=random.Random(1))
        for node, fresh in (
            (checking, restored),
            (merger, Merger(config, fast_cipher, rng=random.Random(2))),
        ):
            document = json.dumps(node.snapshot())
            fresh.restore(json.loads(document))
            assert json.dumps(fresh.snapshot()) == document
        assert restored.buffered_pairs() == checking.buffered_pairs()
        assert restored._early_pairs == checking._early_pairs
