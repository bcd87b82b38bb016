"""Scorecard schema, the BENCH_*.json loader, and artifact staleness.

Every committed ``benchmarks/out/BENCH_<registered bench>.json`` is a
native scorecard whose embedded scenarios and rules equal the bench's
spec at HEAD.  The checks here are on shape only — never on the
wall-clock numbers the artifacts hold.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.benchfab.scenarios import BENCHES, bench_spec
from repro.benchfab.scorecard import (
    Scorecard,
    ScorecardError,
    extract_points,
    load_bench_artifact,
    write_scorecards,
)

_OUT = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "out"

#: The committed artifact of every registered bench that has one.
_STORED = [
    _OUT / f"BENCH_{name}.json"
    for name in sorted(BENCHES)
    if (_OUT / f"BENCH_{name}.json").exists()
]


def test_scorecard_validation_rejects_garbage():
    with pytest.raises(ScorecardError):
        Scorecard.from_dict({"key": {}})  # no scenario
    with pytest.raises(ScorecardError):
        Scorecard.from_dict({"scenario": "s", "metrics": {"rate": "fast"}})
    with pytest.raises(ScorecardError):
        Scorecard.from_dict({"scenario": "s", "surprise": 1})


def test_envelope_validation():
    with pytest.raises(ScorecardError):
        load_bench_artifact({"format": 1, "data": {}})  # no bench
    with pytest.raises(ScorecardError):
        load_bench_artifact({"bench": "b", "format": 99, "data": {}})
    with pytest.raises(ScorecardError):
        load_bench_artifact({"bench": "b", "format": 1, "data": []})
    # A figure script's series table is not a fabric scorecard.
    with pytest.raises(ScorecardError, match="not a fabric scorecard"):
        load_bench_artifact(
            {"bench": "fig09", "format": 1, "data": {"header": [], "rows": []}}
        )


@pytest.mark.parametrize("path", _STORED, ids=lambda path: path.stem)
def test_every_stored_artifact_round_trips(path):
    """Loader + extractor over every committed fabric artifact:
    validates, yields points, and every point carries a metric."""
    artifact = load_bench_artifact(path)
    assert artifact.bench
    assert artifact.format >= 1
    points = extract_points(artifact)
    assert points, f"{path.name}: no evaluable points extracted"
    for point in points:
        assert point.metrics, f"{path.name}: metric-less point {point.key}"
        for name, value in point.metrics.items():
            assert isinstance(value, float), (path.name, name, value)
    # And the artifact's own JSON round-trips through the loader again.
    assert extract_points(
        load_bench_artifact(json.loads(path.read_text()))
    ) == points


def _as_stored(records):
    """What JSON makes of the records (tuples become lists)."""
    return json.loads(json.dumps(records))


@pytest.mark.parametrize("path", _STORED, ids=lambda path: path.stem)
def test_stored_artifact_matches_the_spec_at_head(path):
    """Staleness gate: the artifact embeds exactly the scenarios and
    rules its bench expands to today, so editing a matrix or a threshold
    without re-running the bench fails here.  It also says which tree
    and host produced it."""
    artifact = load_bench_artifact(path)
    spec = bench_spec(artifact.bench)
    assert path.name == f"BENCH_{spec.name}.json"
    assert artifact.scenarios() == _as_stored(
        [scenario.to_dict() for scenario in spec.scenarios()]
    ), f"{path.name}: matrix changed since the run — re-run the bench"
    assert artifact.rules() == _as_stored(
        [rule.to_dict() for rule in spec.rules]
    ), f"{path.name}: rules changed since the run — re-run the bench"
    environment = artifact.data["environment"]
    assert environment["commit"] not in ("", "unknown")
    assert isinstance(environment["dirty"], bool)
    assert environment["nproc"] >= 1


def test_write_scorecards_round_trip(tmp_path):
    cards = [
        Scorecard(
            scenario="t/a",
            key={"batch_size": 8, "runtime": "sync"},
            metrics={"throughput_rps": 123.0},
            counters={"cloud_pairs_total": 9.0},
            fingerprint="abc",
        ),
        Scorecard(scenario="t/b", metrics={"recovery_s": 0.5}),
    ]
    path = write_scorecards(
        tmp_path, "t", cards, title="T", scenarios=[{"name": "t/a"}],
        rules=[],
    )
    assert path == tmp_path / "BENCH_t.json"
    artifact = load_bench_artifact(path)
    assert set(artifact.data["environment"]) == {"commit", "dirty", "nproc"}
    assert [card.scenario for card in artifact.scorecards()] == ["t/a", "t/b"]
    assert artifact.scenarios() == [{"name": "t/a"}]
    points = extract_points(artifact)
    # Counters merge into evaluable metrics; card metrics win collisions.
    assert points[0].metrics == {
        "throughput_rps": 123.0,
        "cloud_pairs_total": 9.0,
    }
    assert points[0].get("batch_size") == 8
