"""Batch-boundary regressions (docs/BATCHING.md).

Three invariants that byte-level equivalence depends on, pinned at the
component level so a violation fails here with a readable story instead
of as a fingerprint mismatch in the integration harness:

* the *close* flush — ending a publication ships the in-flight batch,
  stamped with the closing publication number, strictly before the
  *publishing* broadcast (a batch never straddles a boundary);
* the randomer processes a :class:`PairBatch` exactly as a scalar model
  over ``Randomer.insert`` + ``LeafArrays.check_and_update`` processes
  the same pairs one at a time (same eviction draws, same released
  stream, same residue) — however the pairs are cut into batches;
* the *delay* flush fires from the injected clock — no wall-clock sleeps
  in the pipeline or in this test.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.checking import CheckingNode, ProtocolError
from repro.core.dispatcher import Dispatcher
from repro.core.messages import (
    NewPublication,
    PublishingMsg,
    RawBatch,
    RemovedBatch,
    ToCloudBatch,
)
from repro.core.randomer import Randomer
from repro.index.perturb import draw_noise_plan
from repro.index.template import LeafArrays
from repro.index.tree import IndexTree
from repro.records.record import EncryptedRecord
from repro.telemetry.clock import SimulatedClock
from tests.columns import cloud_rows, pair_batch, rows_of


def _dispatcher(flu_config, batch_size, max_batch_delay=0.05, clock=None):
    config = dataclasses.replace(
        flu_config, batch_size=batch_size, max_batch_delay=max_batch_delay
    )
    return Dispatcher(config, rng=random.Random(33), clock=clock)


class TestCloseSplitsInflightBatch:
    def test_close_flushes_before_publishing_broadcast(self, flu_config):
        dispatcher = _dispatcher(flu_config, batch_size=64)
        dispatcher.start_publication()
        lines = [f"line-{i}" for i in range(5)]
        for line in lines:
            assert dispatcher.on_raw(line) == []  # far below batch_size
        assert dispatcher.pending_batch_records == 5
        out = dispatcher.end_publication()
        assert dispatcher.pending_batch_records == 0
        kinds = [type(message) for _, message in out]
        last_batch = max(
            i for i, kind in enumerate(kinds) if kind is RawBatch
        )
        first_publishing = kinds.index(PublishingMsg)
        assert last_batch < first_publishing
        batches = [m for _, m in out if isinstance(m, RawBatch)]
        assert all(batch.publication == 0 for batch in batches)
        # Raw lines kept arrival order; the end-of-interval dummy release
        # joins the same accumulator behind them.
        flushed_lines = [
            item
            for batch in batches
            for item in batch.items
            if isinstance(item, str)
        ]
        assert flushed_lines == lines

    def test_next_interval_batches_get_new_publication(self, flu_config):
        dispatcher = _dispatcher(flu_config, batch_size=4)
        dispatcher.start_publication()
        dispatcher.on_raw("tail")
        dispatcher.end_publication()
        dispatcher.start_publication()
        out = []
        for i in range(4):
            out.extend(dispatcher.on_raw(f"next-{i}"))
        (_, batch), = out
        assert isinstance(batch, RawBatch)
        assert batch.publication == 1
        assert batch.items == ("next-0", "next-1", "next-2", "next-3")


class _ManualLoop:
    """A hand-advanced event-loop stand-in for :class:`SimulatedClock`."""

    def __init__(self):
        self.now = 0.0


class TestDelayFlush:
    def test_max_batch_delay_fires_on_simulated_clock(self, flu_config):
        loop = _ManualLoop()
        dispatcher = _dispatcher(
            flu_config,
            batch_size=10,
            max_batch_delay=0.05,
            clock=SimulatedClock(loop),
        )
        dispatcher.start_publication()
        assert dispatcher.on_raw("a") == []  # opens the delay window at 0
        loop.now = 0.1  # past max_batch_delay, no sleeping involved
        out = dispatcher.on_raw("b")
        (_, batch), = out
        assert isinstance(batch, RawBatch)
        assert batch.items == ("a", "b")  # delay flush, size never reached
        assert dispatcher.pending_batch_records == 0

    def test_flush_due_polls_the_window(self, flu_config):
        loop = _ManualLoop()
        dispatcher = _dispatcher(
            flu_config,
            batch_size=10,
            max_batch_delay=0.05,
            clock=SimulatedClock(loop),
        )
        dispatcher.start_publication()
        assert dispatcher.flush_due() == []  # nothing in flight
        loop.now = 1.0
        dispatcher.on_raw("c")
        assert dispatcher.flush_due(now=1.04) == []  # still inside window
        out = dispatcher.flush_due(now=1.05)
        (_, batch), = out
        assert batch.items == ("c",)

    def test_size_flush_never_consults_clock_at_batch_one(self, flu_config):
        class _Fails:
            def now(self):  # pragma: no cover - the assertion *is* the test
                raise AssertionError("batch_size=1 must not read the clock")

        dispatcher = _dispatcher(flu_config, batch_size=1, clock=_Fails())
        dispatcher.start_publication()
        (_, batch), = dispatcher.on_raw("solo")
        assert batch.items == ("solo",)


def _pair(offset: int, tag: int, dummy: bool = False):
    return (offset, tag.to_bytes(4, "little") * 8, dummy)


def _released(outbox) -> tuple[list, list]:
    """Normalise checking output to (cloud stream, merger stream), both
    as ``(leaf, ciphertext)`` rows in release order."""
    cloud, merger = [], []
    for destination, message in outbox:
        if isinstance(message, ToCloudBatch):
            cloud.extend(cloud_rows(message))
        elif isinstance(message, RemovedBatch):
            merger.extend(zip(message.leaves, message.ciphertexts))
    return cloud, merger


def _small_buffer(flu_config, delta_prime):
    """``flu_config`` with a randomer small enough to evict: the
    capacity is ``alpha * s_i * leaves``, and ``delta_prime`` sets s_i
    (0.5 -> 0, capacity 1; 0.6 -> 1, capacity 160)."""
    return dataclasses.replace(flu_config, delta_prime=delta_prime)


def _plan(config):
    tree = IndexTree(config.domain, fanout=config.fanout)
    return draw_noise_plan(tree, config.epsilon, rng=random.Random(31))


def _pairs(config, count):
    source = random.Random(3)
    return [
        _pair(
            source.randrange(config.domain.num_leaves),
            tag=i,
            dummy=source.random() < 0.2,
        )
        for i in range(count)
    ]


def _scalar_model(config, plan, pairs, rng):
    """The checking node one pair at a time, over the scalar primitives
    the bulk forms are defined by: returns (cloud stream, merger stream,
    dummies passed, residents)."""
    randomer = Randomer(config.randomer_buffer_size, rng=rng)
    arrays = LeafArrays(plan.leaf_noise)
    cloud, merger, dummies = [], [], 0
    for leaf, ciphertext, dummy in pairs:
        evicted = rows_of(
            *randomer.insert_batch((leaf,), (ciphertext,), bytes((dummy,)))
        )
        if not evicted:
            continue
        ((leaf, ciphertext, dummy),) = evicted
        if dummy:
            dummies += 1
            cloud.append((leaf, ciphertext))
        elif arrays.check_and_update(leaf).removed:
            merger.append((leaf, ciphertext))
        else:
            cloud.append((leaf, ciphertext))
    residents = [
        (0, leaf, EncryptedRecord(leaf, ciphertext))
        for leaf, ciphertext, _ in rows_of(*randomer.columns())
    ]
    return cloud, merger, dummies, residents


class TestRandomerBatchOrdering:
    @pytest.mark.parametrize("chunk", [1, 3, 8, 25])
    def test_pair_batch_releases_identical_stream(self, flu_config, chunk):
        """Same seeded randomer, same pairs: delivering them as batches
        must evict the same pairs in the same order as one at a time."""
        config = _small_buffer(flu_config, delta_prime=0.6)
        plan = _plan(config)
        pairs = _pairs(config, 400)
        cloud, merger, dummies, residents = _scalar_model(
            config, plan, pairs, random.Random(9)
        )
        assert cloud and merger and dummies  # the model exercises all arms

        batched = CheckingNode(config, rng=random.Random(9))
        batched.on_new_publication(NewPublication(0, plan))
        batched_out = []
        for start in range(0, len(pairs), chunk):
            message = pair_batch(0, pairs[start:start + chunk])
            batched_out.extend(batched.on_pair_batch(message))

        assert _released(batched_out) == (cloud, merger)
        assert batched.buffered_pairs() == residents
        assert batched.pairs_processed == len(cloud) + len(merger)
        assert batched.dummies_passed == dummies
        assert batched.records_removed == len(merger)

    def test_an_unannounced_batch_raises(self, flu_config):
        """Admission applies messages in the synchronous driver's order,
        so a batch for a publication neither open nor held for
        announcement is a protocol error, not an arrival to hold."""
        config = _small_buffer(flu_config, delta_prime=0.5)
        batch = pair_batch(0, _pairs(config, 25))
        checking = CheckingNode(config, rng=random.Random(9))
        with pytest.raises(ProtocolError, match="publication 0"):
            checking.on_pair_batch(batch)
        assert checking.pairs_processed == 0
