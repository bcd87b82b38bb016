"""The batch ≡ per-record equivalence harness.

The batched ingestion hot path must be a pure performance optimisation:
for any arrival stream, any batch size and any flush timing, the cloud
must end up in a state *byte-identical* to the per-record pipeline's —
same publication contents in the same order, same pair counts, same
query answers, same ε spend.  ``batch_size=1`` is not a separate legacy
path: it runs the same accumulator code and must degenerate exactly.

Why this holds (and what these tests pin down): in the synchronous
driver the global record-processing order equals the arrival order
regardless of how arrivals are grouped into batches — dummies interleave
through the same accumulator, the simulated cipher draws IVs from a
shared arrival-ordered counter, and the randomer's eviction draws happen
once per insert.  Anything that breaks that order (a batch straddling a
publication close, a dropped flush, reordered evictions) changes the
fingerprint and fails here.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchfab.fingerprint import publication_digest
from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.records.schema import flu_survey_schema

from tests.conftest import cloud_state_fingerprint, query_fingerprint

#: Every batch size the equivalence property is asserted for.
BATCH_SIZES = (1, 2, 7, 64, 256)

_MASTER_KEY = b"fresque-test-master-key-32bytes!"
_SEED = 20210323


def _state(system, low: float = 36.0, high: float = 39.0) -> dict:
    """Everything two equivalent runs must agree on: the cloud-state
    fingerprint, the published trees and overflow arrays, one query."""
    state = cloud_state_fingerprint(system)
    state["publications"] = publication_digest(system)
    state["query"] = query_fingerprint(system, low, high)
    return state


def _build(batch_size: int, num_computing_nodes: int = 3) -> FresqueSystem:
    """A fresh deployment (fresh cipher: the IV counter must not leak
    state between the runs under comparison)."""
    config = FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=num_computing_nodes,
        epsilon=1.0,
        alpha=2.0,
        batch_size=batch_size,
    )
    cipher = SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))
    return FresqueSystem(config, cipher, seed=_SEED)


@pytest.fixture(scope="module")
def publications() -> list[list[str]]:
    """Three publication intervals of a seeded flu arrival stream."""
    generator = FluSurveyGenerator(seed=71)
    return [list(generator.raw_lines(250)) for _ in range(3)]


@pytest.fixture(scope="module")
def baseline(publications) -> dict:
    """Final state of the per-record (``batch_size=1``) pipeline."""
    system = _build(1)
    for lines in publications:
        system.run_publication(lines)
    return _state(system)


class TestBatchSizesEquivalent:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
    def test_cloud_state_byte_identical(
        self, publications, baseline, batch_size
    ):
        system = _build(batch_size)
        for lines in publications:
            system.run_publication(lines)
        assert _state(system) == baseline

    def test_batch_one_is_the_same_code_path(self, publications, baseline):
        """``batch_size=1`` must run the accumulator, not a legacy arm:
        one single-item flush per record, zero delay/size distinction."""
        system = _build(1)
        system.start()
        out = system.dispatcher.on_raw(publications[0][0])
        assert len(out) == 1
        (_, message), = out
        assert type(message).__name__ == "RawBatch"
        assert len(message.items) == 1
        assert system.dispatcher.pending_batch_records == 0

    def test_manual_flush_timing_is_invisible(self, publications, baseline):
        """Forcing flushes at arbitrary points (the delay-flush analogue)
        must not change the final state — only batch boundaries move."""
        system = _build(64)
        system.start()
        step = 0
        for lines in publications:
            publication = system.dispatcher.publication
            total = max(1, len(lines))
            for position, line in enumerate(lines):
                system.pump_dummies((position + 1) / (total + 1))
                system.ingest(line)
                step += 1
                if step % 11 == 0:  # arbitrary, batch-misaligned
                    system.flush_ingest()
            system.close_publication()
            assert system.cloud.is_published(publication)
        assert _state(system) == baseline


class TestMidBatchIntervalClose:
    @pytest.mark.parametrize("batch_size", [64, 256])
    def test_close_splits_inflight_batch(self, batch_size):
        """Publications far smaller than the batch: every record still
        lands in its own publication number (the close flush), matching
        the per-record run byte for byte."""
        generator = FluSurveyGenerator(seed=11)
        publications = [list(generator.raw_lines(9)) for _ in range(4)]
        reference = _build(1)
        for lines in publications:
            reference.run_publication(lines)
        system = _build(batch_size)
        for lines in publications:
            summary = system.run_publication(lines)
            assert system.dispatcher.pending_batch_records == 0
            assert summary.real_records == len(lines)
        assert cloud_state_fingerprint(system) == cloud_state_fingerprint(
            reference
        )


class TestNodeDownMidBatch:
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_redispatch_preserves_batch(self, batch_size):
        """A batch addressed to a dead node is redispatched whole, in
        order, to a survivor — no record of it is lost."""
        system = _build(batch_size)
        system.start()
        generator = FluSurveyGenerator(seed=5)
        lines = list(generator.raw_lines(batch_size))
        dispatcher = system.dispatcher
        outbox = []
        for line in lines:
            outbox.extend(dispatcher.on_raw(line))
        outbox.extend(dispatcher.flush_batch())
        batches = [m for _, m in outbox if type(m).__name__ == "RawBatch"]
        assert sum(len(b.items) for b in batches) == len(lines)
        (dead_destination, batch) = next(
            (d, m) for d, m in outbox if type(m).__name__ == "RawBatch"
        )
        dispatcher.mark_node_down(int(dead_destination[3:]))
        rerouted = dispatcher.redispatch(batch)
        (destination, routed), = rerouted
        assert destination != dead_destination
        assert routed.items == batch.items
        assert dispatcher.records_rerouted == len(batch.items)

    def test_degraded_run_loses_nothing(self):
        """End to end with a node taken out mid-stream: every ingested
        record is accounted for at the cloud (count equivalence; byte
        equivalence cannot hold — the routing itself changed)."""
        generator = FluSurveyGenerator(seed=5)
        lines = list(generator.raw_lines(120))
        system = _build(8)
        system.start()
        publication = system.dispatcher.publication
        for index, line in enumerate(lines):
            if index == 57:  # mid-batch: 57 = 7 (mod 8)
                system.crash_node(1)
            system.ingest(line)
        system.close_publication()
        receipt = system.cloud.receipt_for(publication)
        dummies = system.checking.dummies_passed
        removed = system.checking.records_removed
        assert receipt.records_matched == len(lines) + dummies - removed


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    batch_size=st.sampled_from(BATCH_SIZES),
    stream_seed=st.integers(min_value=0, max_value=2**16),
    interval_lengths=st.lists(
        st.integers(min_value=0, max_value=60), min_size=1, max_size=3
    ),
    flush_every=st.one_of(st.none(), st.integers(min_value=1, max_value=13)),
)
def test_property_batched_equals_per_record(
    batch_size, stream_seed, interval_lengths, flush_every
):
    """For any seeded arrival stream, interval layout, batch size and
    manual-flush cadence: batched final state == per-record final state."""
    generator = FluSurveyGenerator(seed=stream_seed)
    publications = [
        list(generator.raw_lines(length)) for length in interval_lengths
    ]

    def run(size: int) -> dict:
        system = _build(size)
        system.start()
        step = 0
        for lines in publications:
            total = max(1, len(lines))
            for position, line in enumerate(lines):
                system.pump_dummies((position + 1) / (total + 1))
                system.ingest(line)
                step += 1
                if flush_every is not None and step % flush_every == 0:
                    system.flush_ingest()
            system.close_publication()
        return _state(system, 36.0, 40.0)

    assert run(batch_size) == run(1)
