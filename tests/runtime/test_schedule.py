"""The scheduled runtime: one seeded interleaving per seed, replayable."""

import dataclasses

import pytest

from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.records.schema import flu_survey_schema
from repro.records.serialize import parse_raw_line
from repro.runtime.schedule import ScheduledFresque, ScheduleStall
from repro.telemetry.clock import SimulatedClock
from repro.telemetry.context import Telemetry

from tests.conftest import cloud_state_fingerprint


class _ManualLoop:
    def __init__(self):
        self.now = 0.0


class TestScheduledFresque:
    def test_end_to_end_matches_truth(self, flu_config, fast_cipher):
        generator = FluSurveyGenerator(seed=44)
        lines = list(generator.raw_lines(1500))
        with ScheduledFresque(flu_config, fast_cipher, seed=7) as runtime:
            runtime.run_publication(lines)
            result = runtime.make_client().range_query(340, 420)
        schema = flu_survey_schema()
        truth = {parse_raw_line(line, schema).values for line in lines}
        got = {record.values for record in result.records}
        assert got <= truth
        assert len(got) >= 0.9 * len(truth)

    def test_multiple_publications(self, flu_config, fast_cipher):
        generator = FluSurveyGenerator(seed=45)
        with ScheduledFresque(flu_config, fast_cipher, seed=8) as runtime:
            runtime.run_publication(list(generator.raw_lines(400)))
            runtime.run_publication(list(generator.raw_lines(400)))
            assert len(runtime.cloud.engine.published) == 2

    def test_double_start_rejected(self, flu_config, fast_cipher):
        runtime = ScheduledFresque(flu_config, fast_cipher, seed=9)
        runtime.start()
        with pytest.raises(RuntimeError):
            runtime.start()

    def test_matches_synchronous_driver_counts(self, fast_cipher):
        """The schedule must not change *what* is published, only when:
        pair counts at the cloud match the synchronous driver's."""
        config = FresqueConfig(
            schema=flu_survey_schema(),
            domain=flu_domain(),
            num_computing_nodes=2,
        )
        generator = FluSurveyGenerator(seed=46)
        lines = list(generator.raw_lines(600))

        sync = FresqueSystem(config, fast_cipher, seed=11)
        sync.start()
        summary = sync.run_publication(lines)

        with ScheduledFresque(config, fast_cipher, seed=11) as runtime:
            runtime.run_publication(lines)
            scheduled_pairs = runtime.cloud.engine.published[0].pointers.total
        # Same seed → same noise plan → same dummy/removal totals.
        assert scheduled_pairs == summary.published_pairs

    def test_single_computing_node(self, fast_cipher):
        config = FresqueConfig(
            schema=flu_survey_schema(),
            domain=flu_domain(),
            num_computing_nodes=1,
        )
        generator = FluSurveyGenerator(seed=47)
        with ScheduledFresque(config, fast_cipher, seed=12) as runtime:
            runtime.run_publication(list(generator.raw_lines(200)))
            assert len(runtime.cloud.engine.published) == 1


class TestReplay:
    def _run(self, config, cipher, seed):
        generator = FluSurveyGenerator(seed=48)
        runtime = ScheduledFresque(config, cipher, seed=seed)
        delivered = []
        checking = runtime._handlers["checking"]
        runtime.start()
        # Record the order the checking node's messages are handled in.
        runtime._handlers["checking"] = lambda message: (
            delivered.append(type(message).__name__) or checking(message)
        )
        for _ in range(2):
            runtime._feed(list(generator.raw_lines(150)))
            runtime.close_publication()
        runtime.settle(1)
        return delivered, cloud_state_fingerprint(runtime)

    def test_a_seed_replays_its_interleaving(self, flu_config, fast_cipher):
        config = dataclasses.replace(
            flu_config, batch_size=4, deterministic_ivs=True
        )
        first = self._run(config, fast_cipher, seed=3)
        assert self._run(config, fast_cipher, seed=3) == first

    def test_seeds_draw_different_interleavings(
        self, flu_config, fast_cipher
    ):
        config = dataclasses.replace(flu_config, batch_size=4)
        orders = {
            tuple(self._run(config, fast_cipher, seed=seed)[0])
            for seed in range(4)
        }
        assert len(orders) > 1

    def test_the_schedule_leaves_the_seed_chain_alone(
        self, flu_config, fast_cipher
    ):
        """The schedule draws from its own RNG: the components get the
        synchronous driver's seeds, so its noise plan is the same."""
        sync = FresqueSystem(flu_config, fast_cipher, seed=5)
        runtime = ScheduledFresque(flu_config, fast_cipher, seed=5)
        sync.start()
        runtime.start()
        assert runtime.dispatcher.snapshot() == sync.dispatcher.snapshot()


class TestSettle:
    def test_a_stalled_publication_raises(self, flu_config, fast_cipher):
        """Every queue drained and no receipt: settle names the stall
        instead of returning as if the publication had drained."""
        runtime = ScheduledFresque(flu_config, fast_cipher, seed=1)
        runtime.start()
        runtime._handlers["merger"] = lambda message: []  # never publishes
        runtime._feed(list(FluSurveyGenerator(seed=49).raw_lines(30)))
        with pytest.raises(ScheduleStall, match="publication 0 unmatched"):
            runtime.finish_publication()

    def test_poll_flush_on_the_injected_clock(self, flu_config, fast_cipher):
        """No poller thread: the caller's ``poll_flush`` fires the delay
        flush once the injected clock passes the bound.  On the
        scheduled and the sync driver, after a burst at batch 256, each
        trickle line is flushed within ``max_batch_delay`` plus one poll
        of simulated time."""
        delay = poll = 0.01
        config = dataclasses.replace(
            flu_config, batch_size=256, max_batch_delay=delay
        )
        lines = list(FluSurveyGenerator(seed=11).raw_lines(620))
        burst, trickle = lines[:600], lines[600:]
        drivers = (
            lambda clock: ScheduledFresque(
                config, fast_cipher, seed=3, clock=clock
            ),
            lambda clock: FresqueSystem(
                config, fast_cipher, seed=3,
                telemetry=Telemetry(clock=clock),
            ),
        )
        for build in drivers:
            loop = _ManualLoop()
            runtime = build(SimulatedClock(loop))
            runtime.start()
            runtime.ingest_batch(burst)
            runtime.flush_ingest()
            assert runtime.dispatcher.pending_batch_records == 0
            for line in trickle:
                runtime.ingest(line)
                enqueued = loop.now
                runtime.poll_flush()
                assert runtime.dispatcher.pending_batch_records == 1
                while runtime.dispatcher.pending_batch_records:
                    loop.now += poll
                    runtime.poll_flush()
                    assert loop.now - enqueued <= delay + poll + 1e-9
            runtime.shutdown()


class TestCrash:
    def test_the_degrade_step_is_scheduled(self, flu_config, fast_cipher):
        """``crash_node`` stops the node at once and discards its FIFO
        unread; the NodeDown notice and the dispatcher's re-send run
        where the schedule puts them, and the victim never handles
        another message."""
        config = dataclasses.replace(flu_config, batch_size=1)
        runtime = ScheduledFresque(config, fast_cipher, seed=2)
        runtime.start()
        lines = list(FluSurveyGenerator(seed=50).raw_lines(60))
        runtime.ingest_batch(lines[:30])
        queued = len(runtime._fifos["cn-1"])
        handled_after_crash = []
        runtime._handlers["cn-1"] = handled_after_crash.append
        runtime.crash_node(1)
        assert not runtime._fifos["cn-1"]
        assert runtime.dead_nodes == frozenset()
        assert runtime.dispatcher.dead_nodes == frozenset()
        runtime.ingest_batch(lines[30:])
        assert runtime.finish_publication() is not None
        assert runtime.dead_nodes == {"cn-1"}
        assert not runtime._fifos["cn-1"]
        assert handled_after_crash == []
        assert runtime.dispatcher.records_rerouted >= queued > 0
