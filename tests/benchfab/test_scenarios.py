"""The bench registry and run_bench orchestration (stubbed runner)."""

from __future__ import annotations

import pytest

from repro.benchfab.scenarios import BENCHES, bench_spec, run_bench
from repro.benchfab.scorecard import Scorecard, load_bench_artifact
from repro.benchfab.spec import Scenario
from repro.benchfab.trend import TrajectoryStore


def test_registry_covers_the_ported_benches():
    assert sorted(BENCHES) == [
        "adaptive_batching",
        "batching",
        "conformance",
        "fabric_smoke",
        "membership_churn",
        "shm_batch_sweep",
        "shm_scaling",
    ]
    with pytest.raises(KeyError):
        bench_spec("nonexistent")


def test_every_bench_expands_cleanly():
    for name, spec in BENCHES.items():
        scenarios = spec.scenarios()
        assert scenarios, name
        assert len({s.name for s in scenarios}) == len(scenarios)
        assert all(s.bench == name for s in scenarios)
        # Every spec and scenario round-trips to plain data.
        for scenario in scenarios:
            assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_ported_gates_keep_their_thresholds():
    """The bespoke asserts became rules, threshold for threshold."""
    batching = {rule.id: rule for rule in bench_spec("batching").rules}
    assert batching["durable-batch64-speedup"].threshold == 2.0
    assert batching["memory-batch64-speedup"].threshold == 1.15
    assert batching["durable-no-batch-cliff"].frac == 0.10
    assert batching["memory-no-batch-cliff"].frac == 0.15
    adaptive = {rule.id: rule for rule in bench_spec("adaptive_batching").rules}
    assert adaptive["adaptive-matches-best-static"].threshold == 0.9
    assert adaptive["trickle-p99-slo"].threshold == 0.1
    assert adaptive["adaptive-p99-halves-static256"].threshold == 0.5
    shm = {rule.id: rule for rule in bench_spec("shm_scaling").rules}
    assert shm["shm-durable-doubles-threaded"].threshold == 2.0
    assert shm["shm-durable-doubles-threaded"].min_cpus == 4
    churn = {rule.id: rule for rule in bench_spec("membership_churn").rules}
    assert churn["steady-state-within-10pct"].threshold == 0.90


def test_behaviour_drift_is_recorded_not_silent():
    """Where a fabric rule is not gate-for-gate identical to the old
    assert, the drift is written in the rule note."""
    drifted = [
        rule
        for spec in BENCHES.values()
        for rule in spec.rules
        if rule.note.startswith("drift:")
    ]
    assert {rule.id for rule in drifted} >= {
        "adaptive-grows-batch",
        "fleet-restored",
        "smoke-batching-amortises",
    }


def test_conformance_matrix_shape():
    scenarios = bench_spec("conformance").scenarios()
    runtimes = {s.runtime for s in scenarios}
    assert runtimes == {"sync", "threaded", "tcp", "shm"}
    assert all(s.deterministic_ivs for s in scenarios)
    assert all(s.workload == "conformance" for s in scenarios)
    # The socketed runtimes have no durable mode in the matrix.
    assert not [
        s for s in scenarios
        if s.runtime in ("threaded", "tcp") and s.durability == "durable"
        and not s.adaptive
    ]
    assert [s for s in scenarios if s.adaptive]


def _stub_runner(results):
    calls = []

    def runner(scenario, *, data_root=None):
        calls.append(scenario.name)
        return [
            Scorecard(
                scenario=scenario.name,
                key=scenario.axes(),
                metrics=dict(results.get(scenario.name, {"throughput_rps": 1.0})),
            )
        ]

    return runner, calls


def test_run_bench_writes_artifact_and_evaluates(tmp_path):
    spec = bench_spec("batching")
    results = {
        scenario.name: {"throughput_rps": float(scenario.batch_size * 100)}
        for scenario in spec.scenarios()
    }
    runner, calls = _stub_runner(results)
    path, comparison = run_bench(
        "batching", out_dir=tmp_path, runner=runner
    )
    assert len(calls) == len(spec.scenarios())
    artifact = load_bench_artifact(path)
    assert len(artifact.scenarios()) == len(spec.scenarios())
    assert [rule["id"] for rule in artifact.rules()] == [
        rule.id for rule in spec.rules
    ]
    # batch 64 is 64x batch 1 in the stub: both speedup gates pass.
    assert not comparison.failed


def test_run_bench_only_filter_and_unknown(tmp_path):
    runner, calls = _stub_runner({})
    with pytest.raises(KeyError):
        run_bench("batching", out_dir=tmp_path, only=["no-such"], runner=runner)
    spec = bench_spec("batching")
    target = spec.scenarios()[0].name
    path, comparison = run_bench(
        "batching", out_dir=tmp_path, only=[target], runner=runner
    )
    assert calls == [target]
    # A partial run fails its ratio gates (baseline missing) — the
    # report says so instead of passing vacuously.
    assert comparison.failed


def test_run_bench_appends_trajectory_after_compare(tmp_path):
    runner, _ = _stub_runner({})
    store = TrajectoryStore(tmp_path / "traj")
    _, first = run_bench(
        "shm_batch_sweep", out_dir=tmp_path, runner=runner, trajectory=store
    )
    assert first.history_runs == 0  # compared before appending
    assert not first.failed
    _, second = run_bench(
        "shm_batch_sweep", out_dir=tmp_path, runner=runner, trajectory=store
    )
    assert second.history_runs == 1
    assert len(store.history("shm_batch_sweep")) == 2


def test_smoke_tier_is_scale_free():
    """Cross-machine trajectory gates must never compare absolute
    records/s: every smoke rule reads ratios, simulated latencies or
    fingerprint convergence."""
    spec = bench_spec("fabric_smoke")
    assert spec.smoke
    for rule in spec.rules:
        assert rule.metric in (
            "batch64_speedup",
            "trickle_p99_s",
            "conformance_distinct_fingerprints",
            "final_batch_size",
        ), rule.id
