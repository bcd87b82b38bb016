"""End-to-end instrumentation tests: a telemetry-enabled deployment
produces coherent metrics, spans, and reports."""

from repro.core.stats import collect_stats
from repro.core.system import FresqueSystem
from repro.datasets.flu import FluSurveyGenerator
from repro.simulation.costs import NASA_COSTS
from repro.simulation.events import EventLoop
from repro.simulation.metrics import TelemetrySink
from repro.simulation.pipelines import build_fresque
from repro.telemetry import (
    STAGES,
    SimulatedClock,
    Telemetry,
)
from repro.telemetry.report import main as report_main


def _run_system(flu_config, fast_cipher, records=300, publications=1):
    telemetry = Telemetry()
    system = FresqueSystem(
        flu_config, fast_cipher, seed=11, telemetry=telemetry
    )
    system.start()
    generator = FluSurveyGenerator(seed=12)
    for _ in range(publications):
        system.run_publication(list(generator.raw_lines(records)))
    return system, telemetry


class TestInstrumentedSystem:
    def test_all_stages_observed(self, flu_config, fast_cipher):
        _, telemetry = _run_system(flu_config, fast_cipher)
        for stage in STAGES:
            assert telemetry.stage_histogram(stage).count > 0, stage

    def test_counters_match_collector_stats(self, flu_config, fast_cipher):
        system, telemetry = _run_system(flu_config, fast_cipher)
        stats = collect_stats(system)
        dispatched = telemetry.counter("dispatcher_records_total").value
        assert dispatched == stats.records_dispatched
        dummies = telemetry.counter("dispatcher_dummies_total").value
        assert dummies == stats.dummies_generated

    def test_publication_roots_closed(self, flu_config, fast_cipher):
        _, telemetry = _run_system(flu_config, fast_cipher, publications=2)
        roots = [
            span
            for span in telemetry.recorder.spans()
            if span.name == "publication"
        ]
        assert {span.publication for span in roots} == {0, 1}
        for root in roots:
            assert telemetry.recorder.children_of(root.span_id)

    def test_disabled_system_records_nothing(self, flu_config, fast_cipher):
        system = FresqueSystem(flu_config, fast_cipher, seed=11)
        system.start()
        system.run_publication(
            list(FluSurveyGenerator(seed=12).raw_lines(100))
        )
        assert not system.telemetry.enabled
        assert system.telemetry.recorder.spans() == ()


class TestInstrumentedScheduledRuntime:
    def test_every_stage_observed(self, flu_config, fast_cipher):
        from repro.runtime.schedule import ScheduledFresque

        telemetry = Telemetry()
        with ScheduledFresque(
            flu_config, fast_cipher, seed=5, telemetry=telemetry
        ) as runtime:
            runtime.run_publication(
                list(FluSurveyGenerator(seed=6).raw_lines(200))
            )
        for stage in STAGES:
            assert telemetry.stage_histogram(stage).count > 0, stage


class TestReportCli:
    def test_demo_covers_all_stages(self, capsys):
        assert report_main(["--demo", "--records", "120"]) == 0
        out = capsys.readouterr().out
        for stage in STAGES:
            assert stage in out

    def test_record_and_render(self, tmp_path, capsys):
        recording = tmp_path / "run.jsonl"
        assert (
            report_main(
                ["--demo", "--records", "120", "--output", str(recording)]
            )
            == 0
        )
        capsys.readouterr()
        assert report_main([str(recording)]) == 0
        out = capsys.readouterr().out
        for stage in STAGES:
            assert stage in out
        assert "throughput" in out


class TestSimulationSink:
    def test_sink_mirrors_batches_into_telemetry(self):
        loop = EventLoop()
        telemetry = Telemetry(clock=SimulatedClock(loop))
        sink = TelemetrySink(loop, telemetry)
        simulation = build_fresque(loop, NASA_COSTS, 4)
        simulation.stations[-1].sink = sink  # replace the plain Counter
        simulation.run(rate=50_000.0, duration=0.5, warmup=0.1, seed=42)
        assert sink.records > 0
        assert telemetry.counter("sim_records_total").value == sink.records
        latency = telemetry.histogram("sim_batch_latency_seconds")
        assert latency.count == telemetry.counter("sim_batches_total").value
        spans = telemetry.recorder.spans()
        assert spans and all(span.name == "sim_batch" for span in spans)
        # Simulated time: span ends never exceed the loop's final time.
        assert all(span.end <= loop.now for span in spans)
