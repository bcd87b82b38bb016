"""benchfab — the declarative benchmark fabric.

Scenarios are *data*: a :class:`~repro.benchfab.spec.Scenario` is one
concrete run (dataset × runtime × batch size/adaptive × durability ×
fault/churn plan × sharding), a :class:`~repro.benchfab.spec.MatrixSpec`
expands an axes product into scenarios, the
:mod:`~repro.benchfab.runner` executes them against the existing system
builders, and every run emits the one unified scorecard schema
(:mod:`~repro.benchfab.scorecard`) into ``benchmarks/out/BENCH_*.json``.
Gates are declarative tolerance rules (:mod:`~repro.benchfab.rules`)
embedded in every artifact and evaluated by the trend engine
(:mod:`~repro.benchfab.trend`), which also compares fresh results
against the stored trajectory of the same bench.

``python -m repro.benchfab`` exposes ``run``, ``compare`` and ``list``
(see :mod:`~repro.benchfab.cli`); docs/BENCHMARKS.md is the manual.
"""

from repro.benchfab.rules import Rule, Violation, evaluate_rules, render_report
from repro.benchfab.scorecard import (
    BenchArtifact,
    Scorecard,
    extract_points,
    load_bench_artifact,
    write_scorecards,
)
from repro.benchfab.spec import MatrixSpec, Scenario
from repro.benchfab.trend import TrajectoryStore, compare_artifact

__all__ = [
    "BenchArtifact",
    "MatrixSpec",
    "Rule",
    "Scenario",
    "Scorecard",
    "TrajectoryStore",
    "compare_artifact",
    "evaluate_rules",
    "extract_points",
    "load_bench_artifact",
    "render_report",
    "write_scorecards",
]
