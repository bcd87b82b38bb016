"""The trend engine: embedded rules, trajectories, the readable diff.

The worked example is a batch-size sweep whose durable throughput
reads 14.7k / 47.7k / 67.3k / 49.7k records/s at batch 1/8/64/256: the
batch-256 point sits 26% below the batch-64 peak.  The ``batching``
bench's monotone rules must flag that shape from a stored artifact.
Every artifact here is synthetic (``batching_artifact`` writes it to a
tmp path): tier-1 asserts on the engine, never on the numbers a
committed wall-clock artifact happens to hold.
"""

from __future__ import annotations

import json

from repro.benchfab.rules import Rule
from repro.benchfab.scenarios import bench_spec, run_bench
from repro.benchfab.scorecard import Scorecard, load_bench_artifact
from repro.benchfab.trend import TrajectoryStore, compare_artifact

_CLIFF = (14_700, 47_700, 67_300, 49_700)


def _envelope(speedup, *, bench="demo", rules=()):
    """A one-card native envelope carrying a ``speedup`` metric."""
    card = Scorecard(
        scenario=f"{bench}/summary",
        key={"variant": "summary"},
        metrics={"speedup": float(speedup)},
    )
    return {
        "bench": bench,
        "format": 1,
        "python": "3.11.7",
        "data": {
            "scorecards": [card.to_dict()],
            "rules": [rule.to_dict() for rule in rules],
        },
    }


def test_stored_batching_artifact_flags_the_batch_256_cliff(batching_artifact):
    """A stored sweep with the dip fails durable-no-batch-cliff, naming
    the batch-256 point; nothing else fails."""
    comparison = compare_artifact(batching_artifact(_CLIFF))
    assert comparison.failed
    failed = [v for v in comparison.verdicts if v.status == "fail"]
    assert [v.rule.id for v in failed] == ["durable-no-batch-cliff"]
    violation = failed[0].violations[0]
    assert "batch_size=256" in violation.message
    assert "49700" in violation.message
    assert "67300" in violation.message
    # The in-memory series of the same artifact has no dip.
    memory = next(
        v for v in comparison.verdicts if v.rule.id == "memory-no-batch-cliff"
    )
    assert memory.status == "pass"


def test_stored_batching_scorecard_diff_is_readable(batching_artifact):
    """Golden shape of the CI output for that regression."""
    report = compare_artifact(batching_artifact(_CLIFF)).report()
    lines = report.splitlines()
    assert lines[0] == "scorecard: batching"
    assert any(
        line.startswith("[FAIL] durable-no-batch-cliff (monotone)")
        for line in lines
    )
    assert any(
        "batching/batch_size=256/durability=durable 49700 < "
        "batching/batch_size=64/durability=durable 67300" in line
        for line in lines
    )
    # The note explains why the rule exists, in the output itself.
    cliff = next(
        rule
        for rule in bench_spec("batching").rules
        if rule.id == "durable-no-batch-cliff"
    )
    assert f"       note: {cliff.note}" in lines
    assert lines[-1] == "4 rules: 3 passed, 1 failed, 0 skipped"


def test_healthy_series_passes_the_same_rules(batching_artifact):
    comparison = compare_artifact(
        batching_artifact((14_700, 47_700, 62_000, 67_300))
    )
    assert not comparison.failed
    assert {v.status for v in comparison.verdicts} == {"pass"}


def test_compare_judges_with_embedded_rules_only():
    """No registry beside the artifact: a known bench name with no
    embedded rules gets none; explicit ``rules`` override the embedded."""
    assert compare_artifact(_envelope(1.0, bench="batching")).verdicts == []
    own = Rule(id="own", kind="min-value", metric="speedup", threshold=2)
    embedded = compare_artifact(_envelope(1.0, bench="batching", rules=[own]))
    assert [v.rule.id for v in embedded.verdicts] == ["own"]
    assert embedded.failed
    lenient = Rule(id="lenient", kind="min-value", metric="speedup", threshold=1)
    overridden = compare_artifact(
        _envelope(1.0, bench="batching", rules=[own]), rules=[lenient]
    )
    assert [v.rule.id for v in overridden.verdicts] == ["lenient"]
    assert not overridden.failed


def test_unknown_bench_without_rules_passes_vacuously():
    comparison = compare_artifact(
        {"bench": "novel", "format": 1, "data": {"scorecards": []}}
    )
    assert comparison.verdicts == []
    assert not comparison.failed


def test_trajectory_store_round_trip(tmp_path):
    store = TrajectoryStore(tmp_path / "trajectory")
    assert store.history("demo") == []
    assert store.benches() == []
    store.append(load_bench_artifact(_envelope(3.0)))
    store.append(load_bench_artifact(_envelope(3.5)))
    history = store.history("demo")
    assert [run.scorecards()[0].metrics["speedup"] for run in history] == [
        3.0,
        3.5,
    ]
    assert store.benches() == ["demo"]
    # Each line is one valid envelope.
    lines = (tmp_path / "trajectory" / "demo.jsonl").read_text().splitlines()
    assert all(json.loads(line)["bench"] == "demo" for line in lines)


def test_compare_feeds_trajectory_rules(tmp_path):
    store = TrajectoryStore(tmp_path)
    store.append(load_bench_artifact(_envelope(3.0)))
    rules = [
        Rule(
            id="speedup-trajectory",
            kind="trajectory-within",
            metric="speedup",
            agg="max",
            frac=0.10,
        )
    ]
    healthy = compare_artifact(_envelope(2.9), rules=rules, trajectory=store)
    assert not healthy.failed
    assert healthy.history_runs == 1
    assert "trajectory: 1 prior runs" in healthy.report()
    regressed = compare_artifact(_envelope(1.5), rules=rules, trajectory=store)
    assert regressed.failed
