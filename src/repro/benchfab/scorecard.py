"""The unified scorecard schema and the BENCH_*.json loader.

One schema for every fabric benchmark: a :class:`Scorecard` is the
measured outcome of one scenario (throughput, p50/p99 ingest-to-publish
latency, cloud-state fingerprint, plus free-form counters pulled from
the telemetry registry).  A run writes its cards — with the scenario
records, the tolerance rules and the tree and host that produced them
embedded — through the telemetry exporter's stable ``BENCH_*.json``
envelope, and the loader reads exactly that document back into the
:class:`Point` records the rule engine evaluates.  There is no other
layout: the paper-figure scripts' ``BENCH_fig*.json`` tables are their
own and are not fabric input.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.telemetry.exporters import FORMAT_VERSION, write_bench_json

#: Version of the scorecard payload inside the BENCH envelope.
SCORECARD_VERSION = 1

#: The unified metric vocabulary.  Workloads may add extras, but these
#: names mean the same thing in every artifact (docs/BENCHMARKS.md).
METRIC_NAMES = (
    "throughput_rps",
    "p50_latency_s",
    "p99_latency_s",
)


class ScorecardError(ValueError):
    """Raised for artifacts that fail validation."""


@dataclass
class Scorecard:
    """The measured outcome of one scenario run."""

    scenario: str
    key: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    fingerprint: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "key": dict(self.key),
            "metrics": dict(self.metrics),
            "counters": dict(self.counters),
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scorecard":
        unknown = set(data) - {
            "scenario",
            "key",
            "metrics",
            "counters",
            "fingerprint",
        }
        if unknown:
            raise ScorecardError(f"unknown scorecard fields: {sorted(unknown)}")
        if "scenario" not in data:
            raise ScorecardError("scorecard missing 'scenario'")
        metrics = dict(data.get("metrics", {}))
        for name, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScorecardError(
                    f"metric {name!r} of {data['scenario']!r} is not a "
                    f"number: {value!r}"
                )
        return cls(
            scenario=str(data["scenario"]),
            key=dict(data.get("key", {})),
            metrics=metrics,
            counters=dict(data.get("counters", {})),
            fingerprint=data.get("fingerprint"),
        )


@dataclass(frozen=True)
class Point:
    """One evaluable point of a series: axis key → numeric metrics."""

    key: tuple[tuple[str, Any], ...]
    metrics: Mapping[str, float]
    scenario: str = ""

    def label(self) -> str:
        if self.scenario:
            return self.scenario
        return ", ".join(f"{k}={v}" for k, v in self.key) or "(point)"

    def get(self, axis: str, default: Any = None) -> Any:
        for name, value in self.key:
            if name == axis:
                return value
        return default


@dataclass
class BenchArtifact:
    """One parsed + validated ``BENCH_*.json`` file."""

    bench: str
    format: int
    python: str
    data: dict[str, Any]
    path: pathlib.Path | None = None

    def scorecards(self) -> list[Scorecard]:
        return [Scorecard.from_dict(card) for card in self.data["scorecards"]]

    def scenarios(self) -> list[dict[str, Any]]:
        return list(self.data.get("scenarios", []))

    def rules(self) -> list[dict[str, Any]]:
        return list(self.data.get("rules", []))


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------


def load_bench_artifact(source) -> BenchArtifact:
    """Load and validate one BENCH artifact (path, or envelope dict)."""
    path = None
    if isinstance(source, Mapping):
        payload = dict(source)
    else:
        path = pathlib.Path(source)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ScorecardError(f"{path}: not valid JSON ({error})") from None
    for required in ("bench", "format", "data"):
        if required not in payload:
            raise ScorecardError(
                f"{path or 'artifact'}: missing envelope field {required!r}"
            )
    if not isinstance(payload["data"], dict):
        raise ScorecardError(f"{path or 'artifact'}: 'data' is not an object")
    if int(payload["format"]) > FORMAT_VERSION:
        raise ScorecardError(
            f"{path or 'artifact'}: format {payload['format']} is newer than "
            f"this loader ({FORMAT_VERSION})"
        )
    if "scorecards" not in payload["data"]:
        raise ScorecardError(
            f"{path or 'artifact'}: not a fabric scorecard (no 'scorecards')"
        )
    artifact = BenchArtifact(
        bench=str(payload["bench"]),
        format=int(payload["format"]),
        python=str(payload.get("python", "")),
        data=payload["data"],
        path=path,
    )
    artifact.scorecards()  # validates every card
    return artifact


def extract_points(artifact: BenchArtifact) -> list[Point]:
    """One evaluable point per scorecard.

    Counters are evaluable too (rules may gate on them);
    metrics win on a name collision.
    """
    return [
        Point(
            tuple(sorted(card.key.items())),
            {**card.counters, **card.metrics},
            scenario=card.scenario,
        )
        for card in artifact.scorecards()
    ]


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    """Output of one git query on the tree this module was loaded from."""
    try:
        return subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _environment() -> dict[str, Any]:
    """Which tree and host produced a run: the commit it saw, whether
    the working tree had uncommitted changes, and the CPU count."""
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
    }


def write_scorecards(
    path,
    bench: str,
    cards: list[Scorecard],
    *,
    title: str = "",
    scenarios: list[Mapping[str, Any]] | None = None,
    rules: list[Mapping[str, Any]] | None = None,
) -> pathlib.Path:
    """Emit one bench's unified scorecard artifact.

    Rides the telemetry exporter's stable envelope so every existing
    BENCH consumer (CI artifact upload, trajectory diffing) keeps
    working; the scenario records, the tolerance rules that gate the
    run and the tree and host it ran on are embedded so the artifact is
    self-describing.
    """
    data = {
        "title": title or bench,
        "scorecard": SCORECARD_VERSION,
        "environment": _environment(),
        "scenarios": [dict(scenario) for scenario in (scenarios or [])],
        "scorecards": [card.to_dict() for card in cards],
        "rules": [dict(rule) for rule in (rules or [])],
    }
    target = pathlib.Path(path)
    if target.suffix != ".json":
        target.mkdir(parents=True, exist_ok=True)
        target = target / f"BENCH_{bench}.json"
    return write_bench_json(target, bench, data)
