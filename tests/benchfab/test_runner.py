"""The scenario runner against real (small) pipelines."""

from __future__ import annotations

import pytest

from repro.benchfab.runner import (
    FAULT_PLANS,
    RunnerError,
    build_config,
    run_scenario,
)
from repro.benchfab.spec import Scenario


def _scenario(**overrides):
    defaults = dict(name="t/run", bench="t", records=100, batch_size=8)
    defaults.update(overrides)
    return Scenario(**defaults)


def test_build_config_maps_scenario_fields():
    scenario = _scenario(
        workers=5,
        batch_size=16,
        deterministic_ivs=True,
        params=(("max_batch_delay", 0.5),),
    )
    config = build_config(scenario)
    assert config.num_computing_nodes == 5
    assert config.batch_size == 16
    assert config.max_batch_delay == 0.5
    assert config.deterministic_ivs is True


def test_ingest_workload_reports_throughput():
    cards = run_scenario(_scenario(workload="ingest"))
    assert len(cards) == 1
    card = cards[0]
    assert card.metrics["records_total"] == 100.0
    assert card.metrics["throughput_rps"] > 0
    assert card.key["workload"] == "ingest"
    assert card.key["batch_size"] == 8


def test_publication_fingerprints_agree_across_durability(tmp_path):
    memory = run_scenario(
        _scenario(deterministic_ivs=True), data_root=tmp_path
    )[0]
    durable = run_scenario(
        _scenario(
            name="t/durable", durability="durable", deterministic_ivs=True
        ),
        data_root=tmp_path,
    )[0]
    assert memory.fingerprint is not None
    assert memory.fingerprint == durable.fingerprint
    assert memory.metrics["records_matched"] >= 0
    # Telemetry counters from the private registry ride along (the
    # durable runtime has no registry hook; the sync one does).
    assert any("cloud" in name for name in memory.counters)


def test_conformance_scheduled_matches_sync():
    sync = run_scenario(
        _scenario(workload="conformance", deterministic_ivs=True)
    )[0]
    scheduled = run_scenario(
        _scenario(
            name="t/scheduled",
            workload="conformance",
            runtime="scheduled",
            deterministic_ivs=True,
        )
    )[0]
    assert sync.fingerprint == scheduled.fingerprint


def test_burst_trickle_reports_latency():
    card = run_scenario(
        _scenario(
            workload="burst-trickle",
            dataset="gowalla",
            batch_size=256,
            params=(
                ("bursts", 2),
                ("warmup_bursts", 1),
                ("burst_records", 200),
                ("trickle_records", 5),
                ("max_batch_delay", 0.2),
            ),
        )
    )[0]
    # A trickle record waits out the delay flush: the bound plus at
    # most one 0.01 s poll step, on the simulated clock.
    assert 0.2 <= card.metrics["p99_latency_s"] <= 0.2 + 0.011
    assert card.metrics["throughput_rps"] > 0


def test_runner_rejects_bad_scenarios():
    with pytest.raises(RunnerError):
        run_scenario(_scenario(fault_plan="meteor-strike"))
    with pytest.raises(RunnerError):
        run_scenario(_scenario(workload="ingest", runtime="scheduled"))
    with pytest.raises(RunnerError):
        run_scenario(
            _scenario(runtime="scheduled", durability="durable")
        )
    with pytest.raises(RunnerError):
        run_scenario(_scenario(params=(("cipher", "rot13"),)))


def test_named_fault_plans_build():
    for name, factory in FAULT_PLANS.items():
        plan = factory()
        assert plan is not None, name
