"""The bench registry: every fabric benchmark as declarative data.

One :class:`BenchSpec` per BENCH family — a scenario matrix plus the
tolerance rules that used to live as bespoke ``assert`` lines in the
hand-rolled scripts.  The ports preserve each script's workload shape
(dataset, stream seed, record counts, fault scripts) and each gate's
threshold; wherever the declarative form is *not* gate-for-gate
identical, the drift is written down in the rule's ``note`` — never
silently changed.

:func:`run_bench` is the one execution path: expand the matrix, run
every scenario, write the unified scorecard artifact (scenarios and
rules embedded), optionally append it to the trajectory, and evaluate.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.benchfab.rules import Rule
from repro.benchfab.runner import run_scenario
from repro.benchfab.scorecard import Scorecard, write_scorecards
from repro.benchfab.spec import MatrixSpec, Scenario
from repro.benchfab.trend import Comparison, TrajectoryStore, compare_artifact

#: Default artifact directory (shared with the paper-figure scripts).
DEFAULT_OUT_DIR = "benchmarks/out"


@dataclass(frozen=True)
class BenchSpec:
    """One fabric benchmark: a matrix, its rules, and a summariser."""

    name: str
    title: str
    matrix: MatrixSpec
    rules: tuple[Rule, ...] = ()
    #: Optional post-pass deriving scale-free summary cards (ratios,
    #: simulated latencies) from the raw cards — what cross-machine
    #: trajectory rules gate on.
    summarise: Callable[[list[Scorecard]], list[Scorecard]] | None = None
    smoke: bool = False  # part of the CI smoke tier

    def scenarios(self) -> tuple[Scenario, ...]:
        return self.matrix.expand()


# ---------------------------------------------------------------------------
# Ported benches
# ---------------------------------------------------------------------------

_BATCHING = BenchSpec(
    name="batching",
    title="Batched ingestion, Gowalla x12000 (records/s)",
    matrix=MatrixSpec(
        bench="batching",
        base={
            "workload": "ingest",
            "dataset": "gowalla",
            "records": 12_000,
            "workers": 4,
            "sync_every": 16,
        },
        axes={
            "batch_size": (1, 8, 64, 256),
            "durability": ("memory", "durable"),
        },
    ),
    rules=(
        Rule(
            id="durable-batch64-speedup",
            kind="min-ratio",
            metric="throughput_rps",
            select=(("batch_size", 64), ("durability", "durable")),
            baseline=(("batch_size", 1), ("durability", "durable")),
            baseline_agg="last",
            threshold=2.0,
            note="ported verbatim from bench_batching's headline gate: "
            "group commit must at least double sync_every=16 journaling",
        ),
        Rule(
            id="memory-batch64-speedup",
            kind="min-ratio",
            metric="throughput_rps",
            select=(("batch_size", 64), ("durability", "memory")),
            baseline=(("batch_size", 1), ("durability", "memory")),
            baseline_agg="last",
            threshold=1.15,
            note="ported verbatim from bench_batching's in-memory gate",
        ),
        Rule(
            id="durable-no-batch-cliff",
            kind="monotone",
            metric="throughput_rps",
            select=(("durability", "durable"),),
            order_by="batch_size",
            frac=0.10,
            note="a sweep that loses more than 10% from one batch size to "
            "the next is a cliff a deployment's batch_size should stay "
            "below; the August artifact showed one at batch 256 (49.7k "
            "vs 67.3k rec/s), eight sweeps at c27f386 on a 2-vCPU host "
            "did not (batch 256 at 58-94k against 59-93k at batch 64) — "
            "a cell times ~0.15 s of wall, so one red run is one sample",
        ),
        Rule(
            id="memory-no-batch-cliff",
            kind="monotone",
            metric="throughput_rps",
            select=(("durability", "memory"),),
            order_by="batch_size",
            frac=0.15,
            note="in-memory sweep: no journal to amortise, so the curve "
            "flattens earlier and the band is wider; the same eight "
            "sweeps read batch 256 at 61-101k against 56-87k at batch 64",
        ),
    ),
)


#: The cross-runtime conformance matrix (also the integration-test
#: parametrisation): every cell must fingerprint byte-identically to
#: the sync baseline.
CONFORMANCE_MATRIX = MatrixSpec(
    bench="conformance",
    base={
        "workload": "conformance",
        "records": 150,
        "publications": 2,
        "deterministic_ivs": True,
    },
    axes={
        "runtime": ("sync", "scheduled", "tcp"),
        "batch_size": (1, 64),
        "durability": ("memory", "durable"),
    },
    exclude=(
        {"runtime": "scheduled", "durability": "durable"},
        {"runtime": "tcp", "durability": "durable"},
    ),
)

_CONFORMANCE = BenchSpec(
    name="conformance",
    title="Cross-runtime cloud-state byte identity",
    matrix=CONFORMANCE_MATRIX,
    rules=(
        Rule(
            id="byte-identical-to-sync",
            kind="fingerprint-match",
            baseline=(
                ("batch_size", 64),
                ("durability", "memory"),
                ("runtime", "sync"),
            ),
            note="every runtime x batch x durability cell "
            "must publish byte-identical cloud state",
        ),
    ),
)


def _summarise_smoke(cards: list[Scorecard]) -> list[Scorecard]:
    """Scale-free summary the CI trajectory gates on: ratios and
    simulated-clock latencies only, never absolute records/s."""
    by_name = {card.scenario: card for card in cards}

    def rate(name: str) -> float:
        card = by_name.get(name)
        return card.metrics.get("throughput_rps", 0.0) if card else 0.0

    metrics: dict[str, float] = {}
    base = rate("fabric_smoke/batch_size=1")
    if base > 0:
        metrics["batch64_speedup"] = rate("fabric_smoke/batch_size=64") / base
    trickle = by_name.get("fabric_smoke/burst-trickle")
    if trickle is not None:
        metrics["trickle_p99_s"] = trickle.metrics["p99_latency_s"]
    fingerprints = {
        card.fingerprint
        for card in cards
        if card.key.get("workload") == "conformance"
    }
    metrics["conformance_cells"] = float(
        sum(1 for card in cards if card.key.get("workload") == "conformance")
    )
    metrics["conformance_distinct_fingerprints"] = float(
        len(fingerprints - {None})
    )
    return [
        Scorecard(
            scenario="fabric_smoke/summary",
            key={"variant": "summary"},
            metrics=metrics,
        )
    ]


_SMOKE = BenchSpec(
    name="fabric_smoke",
    title="Benchmark-fabric CI smoke tier (reduced matrix, scale-free)",
    matrix=MatrixSpec(
        bench="fabric_smoke",
        base={"workload": "ingest", "dataset": "gowalla", "records": 4_000},
        axes={"batch_size": (1, 64)},
        include=(
            {"name": "fabric_smoke/burst-trickle",
             "workload": "burst-trickle", "batch_size": 256,
             "max_batch_delay": 0.01, "bursts": 3, "warmup_bursts": 1,
             "burst_records": 600, "trickle_records": 20},
            {"name": "fabric_smoke/conform-sync", "workload": "conformance",
             "records": 150, "batch_size": 8, "deterministic_ivs": True},
            {"name": "fabric_smoke/conform-scheduled",
             "workload": "conformance", "runtime": "scheduled",
             "records": 150, "batch_size": 8, "deterministic_ivs": True},
            {"name": "fabric_smoke/conform-durable",
             "workload": "conformance", "durability": "durable",
             "records": 150, "batch_size": 8, "deterministic_ivs": True},
        ),
    ),
    summarise=_summarise_smoke,
    smoke=True,
    rules=(
        Rule(
            id="smoke-batching-amortises",
            kind="min-value",
            metric="batch64_speedup",
            select=(("variant", "summary"),),
            threshold=1.05,
            note="drift: the batching bench gates 1.15x at 12k records; "
            "the smoke tier runs 4k records where the ratio is noisier, "
            "so the floor is 1.05x",
        ),
        Rule(
            id="smoke-trickle-p99-slo",
            kind="max-value",
            metric="trickle_p99_s",
            select=(("variant", "summary"),),
            threshold=0.1,
            note="simulated-clock latency: machine-independent",
        ),
        Rule(
            id="smoke-conformance-converges",
            kind="max-value",
            metric="conformance_distinct_fingerprints",
            select=(("variant", "summary"),),
            threshold=1,
            note="all conformance cells must share one fingerprint",
        ),
        Rule(
            id="smoke-speedup-trajectory",
            kind="trajectory-within",
            metric="batch64_speedup",
            select=(("variant", "summary"),),
            frac=0.35,
            note="cross-run gate on the committed trajectory; wide band "
            "because CI runners vary — absolute records/s are never "
            "compared across machines",
        ),
    ),
)

#: Every bench the fabric can run, by name.
BENCHES: dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        _BATCHING,
        _CONFORMANCE,
        _SMOKE,
    )
}


def bench_spec(name: str) -> BenchSpec:
    try:
        return BENCHES[name]
    except KeyError:
        known = ", ".join(sorted(BENCHES))
        raise KeyError(f"unknown bench {name!r} (known: {known})") from None


def run_bench(
    name: str,
    *,
    out_dir=DEFAULT_OUT_DIR,
    data_root=None,
    trajectory: TrajectoryStore | None = None,
    only: Sequence[str] = (),
    cpu_count: int | None = None,
    runner: Callable[..., list[Scorecard]] = run_scenario,
) -> tuple[pathlib.Path, Comparison]:
    """Run one fabric bench end to end.

    Expands the matrix (optionally filtered to scenario names in
    ``only``), runs every scenario, writes the unified scorecard
    artifact into ``out_dir``, appends it to ``trajectory`` when given,
    and evaluates the bench's rules.  ``runner`` is injectable so tests
    can exercise orchestration without driving real pipelines.
    """
    spec = bench_spec(name)
    scenarios = [
        scenario
        for scenario in spec.scenarios()
        if not only or scenario.name in only
    ]
    if not scenarios:
        raise KeyError(f"no scenarios of {name!r} match {list(only)!r}")
    cards: list[Scorecard] = []
    for scenario in scenarios:
        cards.extend(runner(scenario, data_root=data_root))
    if spec.summarise is not None:
        cards.extend(spec.summarise(cards))
    path = write_scorecards(
        pathlib.Path(out_dir),
        spec.name,
        cards,
        title=spec.title,
        scenarios=[scenario.to_dict() for scenario in scenarios],
        rules=[rule.to_dict() for rule in spec.rules],
    )
    # Compare against the trajectory *before* appending this run, so
    # trajectory rules see only prior history.
    comparison = compare_artifact(
        path, trajectory=trajectory, cpu_count=cpu_count
    )
    if trajectory is not None:
        trajectory.append(comparison.artifact)
    return path, comparison
