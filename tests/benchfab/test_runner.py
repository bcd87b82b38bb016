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
        adaptive=True,
        deterministic_ivs=True,
        params=(
            ("max_batch_delay", 0.5),
            ("min_batch_size", 2),
            ("max_batch_size", 128),
            ("credit_window", 32),
        ),
    )
    config = build_config(scenario)
    assert config.num_computing_nodes == 5
    assert config.batch_size == 16
    assert config.adaptive_batching is True
    assert config.min_batch_size == 2
    assert config.max_batch_size == 128
    assert config.max_batch_delay == 0.5
    assert config.credit_window == 32
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


def test_conformance_threaded_matches_sync():
    sync = run_scenario(
        _scenario(workload="conformance", deterministic_ivs=True)
    )[0]
    threaded = run_scenario(
        _scenario(
            name="t/threaded",
            workload="conformance",
            runtime="threaded",
            deterministic_ivs=True,
        )
    )[0]
    assert sync.fingerprint == threaded.fingerprint


def test_burst_trickle_reports_latency():
    card = run_scenario(
        _scenario(
            workload="burst-trickle",
            dataset="gowalla",
            adaptive=True,
            params=(
                ("bursts", 2),
                ("warmup_bursts", 1),
                ("burst_records", 200),
                ("trickle_records", 5),
                ("max_batch_delay", 0.2),
                ("min_batch_size", 4),
                ("max_batch_size", 512),
            ),
        )
    )[0]
    assert card.metrics["p99_latency_s"] <= 0.2 + 0.011
    assert card.metrics["final_batch_size"] >= 4


def test_churn_workload_emits_phase_cards_and_summary():
    cards = run_scenario(
        _scenario(
            workload="churn",
            runtime="threaded",
            records=240,
            params=(
                ("warmup_pubs", 1),
                ("baseline_pubs", 2),
                ("recovery_pubs", 2),
                ("credit_window", 32),
            ),
        )
    )
    phases = [card.key["phase"] for card in cards]
    assert phases == [
        "warmup", "baseline", "baseline", "churn", "recovery", "recovery",
        "summary",
    ]
    summary = cards[-1]
    assert summary.metrics["records_rerouted"] > 0
    assert summary.metrics["final_epoch"] >= 4
    assert summary.metrics["final_fleet_size"] == 3.0


def test_runner_rejects_bad_scenarios():
    with pytest.raises(RunnerError):
        run_scenario(_scenario(fault_plan="meteor-strike"))
    with pytest.raises(RunnerError):
        run_scenario(_scenario(workload="ingest", runtime="threaded"))
    with pytest.raises(RunnerError):
        run_scenario(
            _scenario(runtime="threaded", durability="durable")
        )
    with pytest.raises(RunnerError):
        run_scenario(_scenario(params=(("cipher", "rot13"),)))
    with pytest.raises(RunnerError):
        run_scenario(_scenario(shards=2, runtime="threaded"))


def test_named_fault_plans_build():
    for name, factory in FAULT_PLANS.items():
        plan = factory()
        assert plan is not None, name
