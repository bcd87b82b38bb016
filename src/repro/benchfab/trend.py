"""The trend engine: trajectories and comparison.

``compare_artifact`` loads a fabric ``BENCH_*.json``, normalises its
scorecards into points, takes the tolerance rules the artifact embeds
(or the explicit ``rules`` override), optionally loads the stored
trajectory of prior runs, and returns the verdicts plus the readable
scorecard diff.  The rules live in one place — each bench's
:class:`~repro.benchfab.scenarios.BenchSpec` — and travel inside every
artifact that bench writes.

A :class:`TrajectoryStore` is a directory of ``<bench>.jsonl`` files,
one envelope per line, append-only: ``benchfab run`` appends each
fresh artifact, ``benchfab compare`` reads the history for
``trajectory-within`` rules.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.benchfab.rules import (
    Rule,
    Verdict,
    evaluate_rules,
    render_report,
    violations,
)
from repro.benchfab.scorecard import (
    BenchArtifact,
    Point,
    extract_points,
    load_bench_artifact,
)

#: Default trajectory directory, next to ``benchmarks/out``.
DEFAULT_TRAJECTORY_DIR = "benchmarks/trajectory"


class TrajectoryStore:
    """Append-only JSONL history of BENCH artifacts, one file per bench."""

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)

    def _path(self, bench: str) -> pathlib.Path:
        return self.root / f"{bench}.jsonl"

    def append(self, artifact: BenchArtifact) -> pathlib.Path:
        """Record one run at the end of the bench's trajectory."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(artifact.bench)
        envelope = {
            "bench": artifact.bench,
            "format": artifact.format,
            "python": artifact.python,
            "data": artifact.data,
        }
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(envelope) + "\n")
        return path

    def history(self, bench: str) -> list[BenchArtifact]:
        """Prior runs, oldest first; empty when none recorded."""
        path = self._path(bench)
        if not path.exists():
            return []
        artifacts = []
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                artifacts.append(load_bench_artifact(json.loads(line)))
        return artifacts

    def benches(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(path.stem for path in self.root.glob("*.jsonl"))


@dataclass
class Comparison:
    """The outcome of one ``benchfab compare`` invocation."""

    artifact: BenchArtifact
    verdicts: list[Verdict] = field(default_factory=list)
    history_runs: int = 0

    @property
    def failed(self) -> bool:
        return any(verdict.status == "fail" for verdict in self.verdicts)

    def violations(self):
        return violations(self.verdicts)

    def report(self) -> str:
        suffix = (
            f"\ntrajectory: {self.history_runs} prior runs"
            if self.history_runs
            else ""
        )
        return render_report(self.artifact.bench, self.verdicts) + suffix


def compare_artifact(
    source,
    *,
    rules: Sequence[Rule] | None = None,
    trajectory: TrajectoryStore | None = None,
    cpu_count: int | None = None,
) -> Comparison:
    """Evaluate one BENCH artifact against its tolerance rules.

    ``source`` is a path or an envelope dict; ``rules`` overrides the
    ones the artifact embeds; ``trajectory`` feeds ``trajectory-within``
    rules with the stored history of the same bench.
    """
    artifact = load_bench_artifact(source)
    chosen = (
        list(rules)
        if rules is not None
        else [Rule.from_dict(rule) for rule in artifact.rules()]
    )
    points = extract_points(artifact)
    cards = artifact.scorecards()
    history: list[list[Point]] = []
    if trajectory is not None:
        history = [
            extract_points(prior)
            for prior in trajectory.history(artifact.bench)
        ]
    verdicts = evaluate_rules(
        points,
        chosen,
        cards=cards,
        history=history,
        cpu_count=cpu_count,
    )
    return Comparison(artifact, verdicts, history_runs=len(history))
