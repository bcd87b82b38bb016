"""Batch flushing across the runtimes (docs/BATCHING.md).

Covers the TCP cluster's background flush poller actually draining a
sub-batch-size trickle (the stalled delay-flush regression), and the restored
dispatcher's seq/ordinal bookkeeping meshing with the checking node's
seq rule after a crash + node death + redispatch.
"""

from __future__ import annotations

import dataclasses
import random
import time

import pytest

from repro.core.checking import CheckingNode
from repro.core.dispatcher import Dispatcher
from repro.core.messages import Admitted, PairBatch, RawBatch
from repro.datasets.flu import FluSurveyGenerator
from repro.runtime.poller import (
    MAX_INTERVAL,
    MIN_INTERVAL,
    FlushPoller,
    poll_interval,
)
from repro.runtime.tcp import TcpFresqueCluster


def _wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise TimeoutError(what)
        time.sleep(0.001)


class TestPollInterval:
    def test_half_the_delay_clamped(self):
        assert poll_interval(0.05) == pytest.approx(0.025)
        assert poll_interval(0.0) == MIN_INTERVAL
        assert poll_interval(100.0) == MAX_INTERVAL

    def test_poller_captures_tick_error(self):
        def boom():
            raise RuntimeError("tick failed")

        poller = FlushPoller(0.001, boom)
        poller.start()
        _wait_for(
            lambda: poller.error is not None,
            5.0,
            "tick error never surfaced",
        )
        poller.stop()
        assert isinstance(poller.error, RuntimeError)


class TestTrickleFlushesViaPoller:
    def test_three_records_at_batch_64_reach_checking(
        self, flu_config, fast_cipher
    ):
        """The stalled-trickle regression: with nothing else arriving,
        records below the batch size must still flush once the delay
        bound passes — driven by the background poller on the wall
        clock, not a close."""
        config = dataclasses.replace(
            flu_config, batch_size=64, max_batch_delay=0.05
        )
        generator = FluSurveyGenerator(seed=11)
        with TcpFresqueCluster(config, fast_cipher, seed=3) as runtime:
            for line in generator.raw_lines(3):
                runtime.ingest(line)
            _wait_for(
                lambda: len(runtime.checking.buffered_pairs()) >= 3,
                10.0,
                "trickle never flushed through the poller",
            )
            assert runtime.dispatcher.pending_batch_records == 0


class TestRestoreRedispatchOrdinals:
    """Satellite: a restored in-flight batch, a node death and a
    redispatch must keep the seq/ordinal bookkeeping the checking node
    (and deterministic IVs) key off."""

    def _dispatcher(self, flu_config):
        config = dataclasses.replace(flu_config, batch_size=4)
        return Dispatcher(config, rng=random.Random(13))

    def test_restored_batch_resumes_seq_and_ordinal(self, flu_config):
        dispatcher = self._dispatcher(flu_config)
        dispatcher.start_publication()
        flushed = []
        for i in range(6):  # one size flush (seq 0), 2 records in flight
            flushed.extend(dispatcher.on_raw(f"line-{i}"))
        batches = [m for _, m in flushed if isinstance(m, RawBatch)]
        assert [b.seq for b in batches] == [0]
        state = dispatcher.snapshot()
        assert len(state["batch"]) == 2

        restored = self._dispatcher(flu_config)
        restored.restore(state)
        assert restored.pending_batch_records == 2
        # ordinal invariant: first in-flight item's dispatch ordinal.
        assert restored._batch_ordinal == restored.records_dispatched - 2

        # The destination node dies before the batch flushes.
        restored.mark_node_down(0)
        out = restored.flush_batch()
        (destination, batch), = out
        assert destination != "cn-0"
        assert batch.seq == 1  # continues the pre-crash sequence
        assert batch.ordinal == 4  # records 4 and 5 of the publication

        # The survivor dies mid-delivery too: redispatch must preserve
        # the stamped seq/ordinal (the checking node dedups by seq, the IVs key
        # off the ordinal), only the route may change.
        (redest, rebatch), = restored.redispatch(batch)
        assert rebatch.seq == batch.seq
        assert rebatch.ordinal == batch.ordinal
        assert rebatch is batch
        assert restored.records_rerouted == 2

    def test_gate_accepts_resumed_seq_and_drops_duplicate(self, flu_config):
        dispatcher = self._dispatcher(flu_config)
        ((_, announcement),) = dispatcher.start_publication()
        flushed = []
        for i in range(6):
            flushed.extend(dispatcher.on_raw(f"line-{i}"))
        restored = self._dispatcher(flu_config)
        restored.restore(dispatcher.snapshot())
        restored.mark_node_down(0)
        (_, tail), = restored.flush_batch()

        checking = CheckingNode(flu_config, rng=random.Random(1))
        checking.handle(announcement)

        def admitted(message):
            return [
                m.seq for _, m in checking.handle(message)
                if isinstance(m, Admitted)
            ]

        # The pre-crash batch arrives after the post-restore one (the
        # redispatch raced it); the checking node re-serialises, and
        # the crash overlap copy of seq 0 is dropped as a duplicate.
        head = next(m for _, m in flushed if isinstance(m, RawBatch))
        assert admitted(PairBatch(0, seq=tail.seq)) == []  # waits for 0
        assert admitted(PairBatch(0, seq=head.seq)) == [0, 1]
        assert admitted(PairBatch(0, seq=head.seq)) == []  # the overlap
        assert checking.duplicates == 1
        assert checking.next_seq == 2
