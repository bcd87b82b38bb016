"""Crash drills for the batched ingestion path.

The worst-case window of the batched collector: the whole chunk is
journalled as one ``rawb`` frame, the process dies *after* that append
and *before* the chunk's records reach the pipeline.  Recovery must
replay the batch exactly once — no lost records, no duplicates, and the
same ε as a crash-free run — at every batch size.

The cross-size equivalence leg crashes every pipeline at the *same*
arrival (record 448, with 448 divisible by every tested batch size, so
each run journals exactly the same 448 lines before dying) and asserts
the recovered final states are byte-identical across batch sizes.
"""

from __future__ import annotations

import pytest

from repro.core.config import FresqueConfig
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.durability.recovery import RecoveryManager
from repro.durability.system import CollectorCrash, DurableFresqueSystem
from repro.records.schema import flu_survey_schema
from repro.runtime.faults import FaultPlan

from tests.conftest import cloud_state_fingerprint

#: Crash sizes must all divide CRASH_AT so every run journals the same
#: lines: lcm(1, 2, 7, 64) = 448.
CRASH_SIZES = (1, 2, 7, 64)
CRASH_AT = 448

_MASTER_KEY = b"fresque-test-master-key-32bytes!"


def _config(batch_size: int) -> FresqueConfig:
    return FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=3,
        epsilon=1.0,
        alpha=2.0,
        batch_size=batch_size,
    )


def _cipher() -> SimulatedCipher:
    return SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))


@pytest.fixture(scope="module")
def lines() -> list[str]:
    return list(FluSurveyGenerator(seed=71).raw_lines(600))


def _crash_and_recover(batch_size: int, root, lines):
    """Run to the injected crash, recover, finish the interval."""
    plan = FaultPlan(seed=5).crash_collector(after_records=CRASH_AT - 1)
    crashed = DurableFresqueSystem(
        _config(batch_size),
        _cipher(),
        root,
        seed=101,
        fault_plan=plan,
        checkpoint_every=0,
    )
    cloud = crashed.cloud  # a different machine: survives the crash
    with pytest.raises(CollectorCrash):
        crashed.run_publication(lines)
    recovered, report = RecoveryManager(
        _config(batch_size),
        _cipher(),
        root,
        cloud=cloud,
        seed=202,
        checkpoint_every=0,
    ).recover()
    total = max(1, len(lines))
    for position, line in enumerate(lines[CRASH_AT:], start=CRASH_AT):
        recovered.pump_dummies((position + 1) / (total + 1))
        recovered.ingest(line)
    receipt = recovered.finish_publication()
    return recovered, report, receipt


class TestMidBatchCrashDrill:
    @pytest.mark.parametrize("batch_size", CRASH_SIZES)
    def test_batch_replays_exactly_once(
        self, tmp_path, lines, batch_size
    ):
        baseline = DurableFresqueSystem(
            _config(batch_size), _cipher(), tmp_path / "base", seed=101
        )
        summary = baseline.run_publication(lines)

        recovered, report, receipt = _crash_and_recover(
            batch_size, tmp_path / "crash", lines
        )
        # Every journalled line replayed once: the crash fired on the
        # last record of a chunk, so the journal holds exactly CRASH_AT
        # lines at every batch size.
        assert report.replayed_raw == CRASH_AT
        assert not report.checkpoint_used
        assert report.reset_publications == [0]
        # Exactly once at the cloud: counts match the crash-free run and
        # the dedupe never had to drop anything for this publication.
        assert receipt.records_matched == summary.published_pairs
        assert recovered.accountant.remaining_epsilon == pytest.approx(
            baseline.accountant.remaining_epsilon
        )

    def test_recovered_state_identical_across_batch_sizes(
        self, tmp_path, lines
    ):
        """Same crash point, same seeds: the recovered cloud must be
        byte-identical whether the journal held 448 ``rawb`` frames of
        one line or 7 of 64."""
        results = {}
        for batch_size in CRASH_SIZES:
            recovered, _, receipt = _crash_and_recover(
                batch_size, tmp_path / f"b{batch_size}", lines
            )
            state = cloud_state_fingerprint(recovered)
            state["matched"] = receipt.records_matched
            state["epsilon"] = round(
                recovered.accountant.remaining_epsilon, 12
            )
            results[batch_size] = state
        reference = results[CRASH_SIZES[0]]
        for batch_size, state in results.items():
            assert state == reference, f"batch_size={batch_size} diverged"


def _chunk_crash(root, lines, batch_size: int, crash_at: int):
    """Crash ``run_publication`` on record ``crash_at``; return the
    crashed system and every ``RawBatch`` its computing nodes received."""
    plan = FaultPlan(seed=5).crash_collector(after_records=crash_at)
    crashed = DurableFresqueSystem(
        _config(batch_size), _cipher(), root, seed=101, fault_plan=plan,
        checkpoint_every=0,
    )
    received = []
    for name in [f"cn-{i}" for i in range(crashed.config.num_computing_nodes)]:
        handler = crashed._handlers[name]

        def capture(message, handler=handler):
            received.append(message)
            return handler(message)

        crashed._handlers[name] = capture
    with pytest.raises(CollectorCrash):
        crashed.run_publication(lines)
    return crashed, received


class TestCrashPointParity:
    """One fault-plan question per chunk gives the per-record crash
    point: the whole chunk is journalled, exactly its first records up
    to the crash are dispatched, and recovery finishes the interval."""

    @pytest.mark.parametrize(
        "batch_size, count, crash_points",
        [
            (4, 12, range(12)),  # every record of three chunks
            (256, 768, (37, 256 + 200, 512 + 255)),  # one inside each
        ],
    )
    def test_crash_inside_a_chunk(
        self, tmp_path, lines, batch_size, count, crash_points
    ):
        stream = (lines * 2)[:count]
        for crash_at in crash_points:
            root = tmp_path / f"crash-{crash_at}"
            crashed, received = _chunk_crash(
                root, stream, batch_size, crash_at
            )
            chunk_end = (crash_at // batch_size + 1) * batch_size
            journalled = [
                line
                for record in crashed.journal.replay()
                if record.lines is not None
                for line in record.lines
            ]
            assert journalled == stream[:chunk_end]

            # Dispatched, in ordinal order: the flushed batches, then
            # the batch still in flight at the crash.
            received.sort(key=lambda batch: batch.ordinal)
            items = [item for batch in received for item in batch.items]
            assert [batch.ordinal for batch in received] == [
                sum(len(batch.items) for batch in received[:index])
                for index in range(len(received))
            ]
            items += crashed.dispatcher._batch
            assert [item for item in items if isinstance(item, str)] == (
                stream[:crash_at]
            )

            recovered, report = RecoveryManager(
                _config(batch_size), _cipher(), root, cloud=crashed.cloud,
                seed=202, checkpoint_every=0,
            ).recover()
            assert report.replayed_raw == chunk_end
            summary = recovered.run_publication(stream[chunk_end:])
            assert summary.publication == 0  # the cloud's receipt
            assert summary.published_pairs > 0
