"""Regression tests for back-to-back (pipelined) publications.

The asynchronous-publication design lets publication ``n + 1`` be ingested
while ``n`` is still being finalised.  Two ordering hazards are pinned
here:

1. a computing node must never acknowledge *publishing(n+1)* before it has
   forwarded publication ``n + 1``'s held pairs (otherwise the checking
   node finalises an empty publication);
2. the checking node must enqueue the buffer flush to the cloud before the
   AL reaches the merger (otherwise the merged index can race ahead of the
   flushed pairs).
"""

import pytest

from repro.core.computing_node import ComputingNode
from repro.core.messages import (
    CnPublishing,
    DoneMsg,
    PairBatch,
    PublishingMsg,
    RawBatch,
)
from repro.datasets.flu import FluSurveyGenerator
from repro.runtime.cluster import ThreadedFresque


def _raw(flu_config, publication, value=371):
    from repro.records.record import Record
    from repro.records.serialize import render_raw_line

    record = Record(("p", 1, value, "none"))
    return RawBatch(
        publication, (render_raw_line(record, flu_config.schema),)
    )


class TestHeldEventOrdering:
    def test_publishing_marker_queued_behind_pairs(self, flu_config, fast_cipher):
        node = ComputingNode(0, flu_config, fast_cipher)
        node.on_publishing(PublishingMsg(0))  # waiting for done(0)
        node.on_raw_batch(_raw(flu_config, publication=1))
        node.on_raw_batch(_raw(flu_config, publication=1))
        # publishing(1) arrives while still waiting: must be queued, not
        # acknowledged.
        assert node.on_publishing(PublishingMsg(1)) == []
        assert node.held_pairs == 2
        # done(0): flush the two pairs, THEN acknowledge publishing(1).
        out = node.on_done(DoneMsg(0))
        kinds = [type(m) for _, m in out]
        assert kinds == [PairBatch, PairBatch, CnPublishing]
        assert out[-1][1].publication == 1
        assert node.waiting_for_done  # re-armed for done(1)

    def test_chain_of_three_publications(self, flu_config, fast_cipher):
        node = ComputingNode(0, flu_config, fast_cipher)
        node.on_publishing(PublishingMsg(0))
        node.on_raw_batch(_raw(flu_config, publication=1))
        node.on_publishing(PublishingMsg(1))
        node.on_raw_batch(_raw(flu_config, publication=2))
        node.on_publishing(PublishingMsg(2))
        # done(0): pub-1 pair + ack(1); pub-2 events stay held.
        out = node.on_done(DoneMsg(0))
        assert [type(m) for _, m in out] == [PairBatch, CnPublishing]
        assert node.held_pairs == 1
        # done(1): pub-2 pair + ack(2).
        out = node.on_done(DoneMsg(1))
        assert [type(m) for _, m in out] == [PairBatch, CnPublishing]
        assert out[-1][1].publication == 2
        # done(2): nothing held, wait cleared.
        assert node.on_done(DoneMsg(2)) == []
        assert not node.waiting_for_done


class TestPipelinedThreadedRuns:
    @pytest.mark.parametrize("trial", range(3))
    def test_deterministic_publications(self, flu_config, fast_cipher, trial):
        """Same seed + same stream must publish identical pair counts on
        every run, regardless of thread interleavings."""
        generator = FluSurveyGenerator(seed=99)
        batches = [list(generator.raw_lines(400)) for _ in range(3)]
        with ThreadedFresque(flu_config, fast_cipher, seed=14) as runtime:
            runtime.run_publications_pipelined(batches)
            totals = [
                d.pointers.total for d in runtime.cloud.engine.published
            ]
        assert len(totals) == 3
        assert all(total > 300 for total in totals)
        # Reference totals from the synchronous driver under the same seed.
        from repro.core.system import FresqueSystem

        reference = FresqueSystem(flu_config, fast_cipher, seed=14)
        reference.start()
        generator = FluSurveyGenerator(seed=99)
        expected = [
            reference.run_publication(list(generator.raw_lines(400))).published_pairs
            for _ in range(3)
        ]
        assert totals == expected
