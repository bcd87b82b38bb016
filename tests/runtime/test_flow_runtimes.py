"""Flow control across the runtimes (docs/BATCHING.md).

Covers the pieces a unit test of :mod:`repro.core.flow` cannot: the
background flush poller actually draining a sub-batch-size trickle
(the stalled delay-flush regression), the credit protocol riding each
transport (threaded inbox, TCP wire, shm control ring), and the
restored dispatcher's seq/ordinal bookkeeping meshing with the shm
ordering gate after a crash + node death + redispatch.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.dispatcher import Dispatcher
from repro.core.messages import CreditGrant, PairBatch, RawBatch
from repro.core.system import FresqueSystem
from repro.datasets.flu import FluSurveyGenerator
from repro.runtime.backoff import await_condition
from repro.runtime.cluster import ThreadedFresque
from repro.runtime.poller import (
    MAX_INTERVAL,
    MIN_INTERVAL,
    FlushPoller,
    poll_interval,
)
from repro.runtime.wire import decode_message, encode_message, read_frames
from repro.telemetry.clock import SimulatedClock


class _ManualLoop:
    def __init__(self):
        self.now = 0.0


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
        await_condition(
            lambda: poller.error is not None or None,
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
        bound passes — driven by the background poller, not a close."""
        loop = _ManualLoop()
        config = dataclasses.replace(
            flu_config, batch_size=64, max_batch_delay=0.05
        )
        generator = FluSurveyGenerator(seed=11)
        runtime = ThreadedFresque(
            config, fast_cipher, seed=3, clock=SimulatedClock(loop)
        )
        with runtime:
            for line in generator.raw_lines(3):
                runtime.ingest(line)
            assert runtime.dispatcher.pending_batch_records == 3
            loop.now = 1.0  # past max_batch_delay on the injected clock
            await_condition(
                lambda: len(runtime.checking.buffered_pairs()) >= 3 or None,
                10.0,
                "trickle never flushed through the poller",
            )
            assert runtime.dispatcher.pending_batch_records == 0


class TestCreditProtocolPerRuntime:
    def test_threaded_publication_completes_with_credits(
        self, flu_config, fast_cipher
    ):
        config = dataclasses.replace(
            flu_config, batch_size=8, credit_window=16
        )
        generator = FluSurveyGenerator(seed=21)
        lines = list(generator.raw_lines(300))
        reference = FresqueSystem(
            dataclasses.replace(flu_config, batch_size=8), fast_cipher, seed=6
        )
        expected = reference.run_publication(list(lines)).published_pairs
        with ThreadedFresque(config, fast_cipher, seed=6) as runtime:
            runtime.run_publication(lines)
            receipt = runtime.cloud.receipt_for(0)
        assert receipt.records_matched == expected
        assert runtime.checking._credits_counter is not None

    def test_tcp_publication_completes_with_credits(
        self, flu_config, fast_cipher
    ):
        from repro.runtime.tcp import TcpFresqueCluster

        config = dataclasses.replace(
            flu_config, batch_size=8, credit_window=16
        )
        generator = FluSurveyGenerator(seed=22)
        lines = list(generator.raw_lines(200))
        with TcpFresqueCluster(config, fast_cipher, seed=5) as cluster:
            records = cluster.run_publication(lines)
        assert records > 0

    def test_shm_publication_completes_with_credits(self):
        from repro.crypto.cipher import SimulatedCipher
        from repro.crypto.keys import KeyStore
        from repro.datasets.flu import flu_domain
        from repro.records.schema import flu_survey_schema
        from repro.core.config import FresqueConfig
        from repro.runtime.shm.cluster import ShmFresqueCluster

        key = b"fresque-test-master-key-32bytes!"
        config = FresqueConfig(
            schema=flu_survey_schema(),
            domain=flu_domain(),
            num_computing_nodes=2,
            batch_size=8,
            credit_window=16,
            deterministic_ivs=True,
        )
        generator = FluSurveyGenerator(seed=23)
        lines = list(generator.raw_lines(200))
        reference = FresqueSystem(
            dataclasses.replace(config, credit_window=0),
            SimulatedCipher(KeyStore(key, key_size=16)),
            seed=4,
        )
        expected = reference.run_publication(list(lines)).published_pairs
        with ShmFresqueCluster(config, key, seed=4) as cluster:
            records = cluster.run_publication(lines)
        assert records == expected


class TestCreditGrantTransport:
    def test_wire_round_trip(self):
        grant = CreditGrant(publication=3, records=17)
        frame = bytearray(encode_message("dispatcher", grant))
        (body,) = read_frames(frame)
        destination, decoded = decode_message(body)
        assert destination == "dispatcher"
        assert decoded == grant


class TestRestoreRedispatchOrdinals:
    """Satellite: a restored in-flight batch, a node death and a
    redispatch must keep the seq/ordinal bookkeeping the shm ordering
    gate (and deterministic IVs) key off."""

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
        # the stamped seq/ordinal (the gate dedups by seq, the IVs key
        # off the ordinal), only the route may change.
        (redest, rebatch), = restored.redispatch(batch)
        assert rebatch.seq == batch.seq
        assert rebatch.ordinal == batch.ordinal
        assert rebatch is batch
        assert restored.records_rerouted == 2

    def test_gate_accepts_resumed_seq_and_drops_duplicate(self, flu_config):
        from repro.runtime.shm.workers import CheckingGate

        dispatcher = self._dispatcher(flu_config)
        dispatcher.start_publication()
        flushed = []
        for i in range(6):
            flushed.extend(dispatcher.on_raw(f"line-{i}"))
        restored = self._dispatcher(flu_config)
        restored.restore(dispatcher.snapshot())
        restored.mark_node_down(0)
        (_, tail), = restored.flush_batch()

        delivered = []

        def handler(message):
            delivered.append(message)
            return []

        gate = CheckingGate(handler, num_nodes=3)
        # The pre-crash batch arrives after the post-restore one (the
        # redispatch raced it); the gate re-serialises, and the crash
        # overlap copy of seq 0 is dropped as a duplicate.
        head = next(m for _, m in flushed if isinstance(m, RawBatch))
        gate.feed(PairBatch(0, (), seq=tail.seq))
        assert delivered == []  # waits for seq 0
        gate.feed(PairBatch(0, (), seq=head.seq))
        assert [m.seq for m in delivered] == [0, 1]
        gate.feed(PairBatch(0, (), seq=head.seq))  # redispatch overlap
        assert gate.duplicates == 1
        assert [m.seq for m in delivered] == [0, 1]
