"""Executes declarative scenarios against the real system builders.

The runner owns every drive loop; scenarios own every knob.  One entry
point — :func:`run_scenario` — dispatches on ``scenario.workload``:

* ``ingest`` — ingest-only records/s (sync or durable collector);
* ``publication`` — full-publication records/s on any runtime, with
  optional named fault plans and checking-shard counts;
* ``burst-trickle`` — the adaptive-batching duty cycle: wall-clock
  burst throughput + simulated-clock trickle flush latency;
* ``churn`` — per-publication throughput across a scripted
  crash/admit/rejoin/retire sequence on the threaded runtime;
* ``conformance`` — run the stream, return only the cloud-state
  fingerprint (the cross-runtime byte-identity matrix).

Every run emits one :class:`~repro.benchfab.scorecard.Scorecard` in the
unified schema, with telemetry-registry counters and stage-latency
quantiles attached when the runtime supports a private registry.
"""

from __future__ import annotations

import pathlib
import statistics
import tempfile
import time
from typing import Callable

from repro.benchfab.datasets import dataset
from repro.benchfab.fingerprint import (
    cloud_state_fingerprint,
    fingerprint_digest,
)
from repro.benchfab.scorecard import Scorecard
from repro.benchfab.spec import Scenario, SpecError
from repro.core.config import FresqueConfig
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.telemetry.clock import SimulatedClock
from repro.telemetry.context import Telemetry

#: Master key every fabric deployment derives its cipher from — a fixed
#: benchmark constant so fingerprints are reproducible across runs.
MASTER_KEY = b"fresque-bench-master-key-32bytes"  # fresque-lint: disable=FRQ-X202 -- reproducible benchmark key, not a production secret

#: Named fault plans a scenario can reference (``Scenario.fault_plan``).
#: Names, not objects: the scenario stays serialisable data.
FAULT_PLANS: dict[str, Callable[[], object]] = {}


def _register_fault_plans() -> None:
    from repro.runtime.faults import FaultPlan

    FAULT_PLANS.update(
        {
            "sever-checking": lambda: FaultPlan(seed=5).sever_connection(
                "checking", at_frames=(50, 150)
            ),
            # The 1ms delay paces the driver against cn-1's worker so
            # the crash lands mid-stream.
            "crash-cn1": lambda: FaultPlan(seed=5)
            .crash_node("cn-1", after_handled=30)
            .delay_frames("cn-1", 0.001, probability=1.0),
        }
    )


_register_fault_plans()


class RunnerError(RuntimeError):
    """Raised when a scenario cannot be executed as written."""


def _cipher(scenario: Scenario):
    kind = scenario.param("cipher", "sim")
    keys = KeyStore(MASTER_KEY, key_size=16)
    if kind == "sim":
        return SimulatedCipher(keys)
    if kind == "aes":
        return AesCbcCipher(keys)
    raise RunnerError(f"unknown cipher {kind!r} in {scenario.name}")


def build_config(scenario: Scenario) -> FresqueConfig:
    """The deployment config a scenario describes."""
    source = dataset(scenario.dataset)
    kwargs = dict(
        schema=source.schema(),
        domain=source.domain(),
        num_computing_nodes=scenario.workers,
        epsilon=float(scenario.param("epsilon", 1.0)),
        alpha=float(scenario.param("alpha", 2.0)),
        batch_size=scenario.batch_size,
        deterministic_ivs=scenario.deterministic_ivs,
    )
    delay = scenario.param("max_batch_delay")
    if delay is not None:
        kwargs["max_batch_delay"] = float(delay)
    if scenario.adaptive:
        kwargs["adaptive_batching"] = True
        kwargs["min_batch_size"] = int(scenario.param("min_batch_size", 1))
        kwargs["max_batch_size"] = int(
            scenario.param("max_batch_size", max(1024, scenario.batch_size))
        )
    credit = scenario.param("credit_window")
    if credit is not None:
        kwargs["credit_window"] = int(credit)
    return FresqueConfig(**kwargs)


def _fault_plan(scenario: Scenario):
    if not scenario.fault_plan:
        return None
    try:
        return FAULT_PLANS[scenario.fault_plan]()
    except KeyError:
        raise RunnerError(
            f"unknown fault plan {scenario.fault_plan!r} in {scenario.name}"
        ) from None


def _telemetry_counters(telemetry: Telemetry) -> dict[str, float]:
    """Nonzero counters/gauges of a run's private registry, flattened."""
    out: dict[str, float] = {}
    for sample in telemetry.registry.samples():
        if sample.kind == "histogram" or not sample.value:
            continue
        labels = ",".join(f"{k}={v}" for k, v in sample.labels)
        name = f"{sample.name}{{{labels}}}" if labels else sample.name
        out[name] = float(sample.value)
    return out


def _stage_quantiles(telemetry: Telemetry) -> dict[str, float]:
    """p50/p99 of the publish stage — the ingest-to-publish latency the
    unified scorecard reports when the runtime feeds the registry."""
    histogram = telemetry.registry.histogram(
        "pipeline_stage_seconds", stage="publish"
    )
    if not histogram.count:
        return {}
    return {
        "p50_latency_s": histogram.quantile(0.5),
        "p99_latency_s": histogram.quantile(0.99),
    }


def _scorecard(
    scenario: Scenario,
    metrics: dict[str, float],
    *,
    counters: dict[str, float] | None = None,
    fingerprint: str | None = None,
) -> Scorecard:
    return Scorecard(
        scenario=scenario.name,
        key=scenario.axes(),
        metrics=metrics,
        counters=counters or {},
        fingerprint=fingerprint,
    )


def _data_dir(scenario: Scenario, data_root) -> pathlib.Path:
    safe = scenario.name.replace("/", "_").replace("=", "-")
    path = pathlib.Path(data_root) / safe
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Deployment builders
# ---------------------------------------------------------------------------


def _build_sync(scenario, config, telemetry, data_root):
    from repro.core.system import FresqueSystem
    from repro.durability.system import DurableFresqueSystem

    if scenario.durability == "durable":
        system = DurableFresqueSystem(
            config,
            _cipher(scenario),
            _data_dir(scenario, data_root),
            seed=scenario.seed,
            checkpoint_every=scenario.checkpoint_every,
            sync_every=scenario.sync_every,
        )
    else:
        system = FresqueSystem(
            config, _cipher(scenario), seed=scenario.seed, telemetry=telemetry
        )
    system.start()
    return system, lambda: None


def _build_threaded(scenario, config, telemetry, data_root):
    del data_root
    from repro.runtime.cluster import ThreadedFresque

    if scenario.durability == "durable":
        raise RunnerError(
            f"{scenario.name}: the threaded runtime has no durable mode"
        )
    system = ThreadedFresque(
        config,
        _cipher(scenario),
        seed=scenario.seed,
        telemetry=telemetry,
        fault_plan=_fault_plan(scenario),
    )
    system.start()
    return system, system.shutdown


def _build_tcp(scenario, config, telemetry, data_root):
    del data_root
    from repro.runtime.tcp import RetryPolicy, TcpFresqueCluster

    if scenario.durability == "durable":
        raise RunnerError(
            f"{scenario.name}: the TCP runtime has no durable mode"
        )
    retry = scenario.param("retry_attempts")
    system = TcpFresqueCluster(
        config,
        _cipher(scenario),
        seed=scenario.seed,
        telemetry=telemetry,
        fault_plan=_fault_plan(scenario),
        retry_policy=RetryPolicy(
            max_attempts=int(retry), base_delay=0.01, max_delay=0.1
        )
        if retry is not None
        else None,
    )
    system.__enter__()
    return system, lambda: system.__exit__(None, None, None)


def _build_shm(scenario, config, telemetry, data_root):
    from repro.runtime.shm.cluster import ShmFresqueCluster

    system = ShmFresqueCluster(
        config,
        MASTER_KEY,
        seed=scenario.seed,
        telemetry=telemetry,
        data_dir=_data_dir(scenario, data_root)
        if scenario.durability == "durable"
        else None,
        fault_plan=_fault_plan(scenario),
    )
    system.__enter__()
    return system, lambda: system.__exit__(None, None, None)


_BUILDERS = {
    "sync": _build_sync,
    "threaded": _build_threaded,
    "tcp": _build_tcp,
    "shm": _build_shm,
}


def _deploy(scenario, config, telemetry, data_root):
    """(system, close) for the scenario's runtime × durability cell."""
    if scenario.shards:
        from repro.core.sharded import ShardedFresqueSystem

        if scenario.runtime != "sync" or scenario.durability != "memory":
            raise RunnerError(
                f"{scenario.name}: checking shards only deploy on the "
                "in-memory sync runtime"
            )
        system = ShardedFresqueSystem(
            config,
            _cipher(scenario),
            num_checking_shards=scenario.shards,
            seed=scenario.seed,
        )
        system.start()
        return system, lambda: None
    return _BUILDERS[scenario.runtime](scenario, config, telemetry, data_root)


def _fingerprint_of(scenario, system) -> str | None:
    if scenario.shards:
        return None  # sharded checking has no single counter set
    if scenario.runtime == "shm":
        return fingerprint_digest(system.fingerprint())
    return fingerprint_digest(cloud_state_fingerprint(system))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _run_ingest(scenario, data_root, telemetry) -> Scorecard:
    """Ingest-only records/s: dispatch/parse/encrypt/check amortisation
    (and, durable, the journal's group-commit discipline)."""
    if scenario.runtime != "sync":
        raise RunnerError(
            f"{scenario.name}: the ingest workload times the collector "
            "loop and only runs on the sync runtime"
        )
    lines = dataset(scenario.dataset).lines(
        scenario.stream_seed, scenario.records
    )[0]
    config = build_config(scenario)
    system, close = _deploy(scenario, config, telemetry, data_root)
    try:
        started = time.perf_counter()
        system.ingest_batch(lines)
        system.flush_ingest()
        elapsed = time.perf_counter() - started
    finally:
        close()
    metrics = {
        "records_total": float(len(lines)),
        "throughput_rps": len(lines) / elapsed if elapsed > 0 else 0.0,
    }
    metrics.update(_stage_quantiles(telemetry))
    return _scorecard(
        scenario, metrics, counters=_telemetry_counters(telemetry)
    )


def _run_publication(scenario, data_root, telemetry) -> Scorecard:
    """Full-publication records/s on any runtime, faults included."""
    source = dataset(scenario.dataset)
    publications = source.lines(
        scenario.stream_seed, scenario.records, scenario.publications
    )
    config = build_config(scenario)
    system, close = _deploy(scenario, config, telemetry, data_root)
    total = sum(len(lines) for lines in publications)
    try:
        started = time.perf_counter()
        returned = [system.run_publication(lines) for lines in publications]
        elapsed = time.perf_counter() - started
        # Matched-pair count: the tcp/shm clusters report it from
        # run_publication; single-process runtimes expose the checking
        # counters directly.
        if any(isinstance(value, int) for value in returned):
            matched = sum(
                value for value in returned if isinstance(value, int)
            )
        elif hasattr(system, "checking"):
            matched = (
                system.checking.pairs_processed
                - system.checking.records_removed
            )
        else:
            matched = None
        fingerprint = (
            _fingerprint_of(scenario, system)
            if scenario.deterministic_ivs and not scenario.fault_plan
            else None
        )
        counters = _telemetry_counters(telemetry)
        for name in ("records_rerouted",):
            value = getattr(system.dispatcher, name, 0)
            if value:
                counters[name] = float(value)
        router = getattr(system, "router", None)
        if router is not None:
            counters["tcp_retries"] = float(router.retries)
            counters["tcp_reconnects"] = float(router.reconnects)
        dead = getattr(system, "dead_nodes", None)
        if dead:
            counters["dead_nodes"] = float(len(dead))
    finally:
        close()
    metrics = {
        "records_total": float(total),
        "throughput_rps": total / elapsed if elapsed > 0 else 0.0,
    }
    if matched is not None:
        metrics["records_matched"] = float(matched)
    metrics.update(_stage_quantiles(telemetry))
    return _scorecard(
        scenario, metrics, counters=counters, fingerprint=fingerprint
    )


class _SimLoop:
    """Minimal event-loop stand-in the simulated clock reads."""

    def __init__(self) -> None:
        self.now = 0.0


def _run_burst_trickle(scenario, data_root, telemetry) -> Scorecard:
    """The adaptive-batching duty cycle: wall-clock burst throughput,
    simulated-clock trickle latency."""
    del telemetry  # this workload needs the simulated clock below
    from repro.core.system import FresqueSystem

    bursts = int(scenario.param("bursts", 6))
    warmup = int(scenario.param("warmup_bursts", 2))
    burst_records = int(scenario.param("burst_records", 2000))
    trickle_records = int(scenario.param("trickle_records", 40))
    arrival = float(scenario.param("arrival_s", 1.0 / 200_000.0))
    poll = float(scenario.param("poll_s", 0.01))
    if scenario.runtime != "sync" or scenario.durability != "memory":
        raise RunnerError(
            f"{scenario.name}: burst-trickle drives the sync in-memory "
            "pipeline (the controller's clock must be simulated)"
        )
    total = bursts * (burst_records + trickle_records)
    lines = iter(
        dataset(scenario.dataset)
        .generator_factory(scenario.stream_seed)
        .raw_lines(total)
    )
    loop = _SimLoop()
    sim_telemetry = Telemetry(clock=SimulatedClock(loop))
    config = build_config(scenario)
    system = FresqueSystem(
        config, _cipher(scenario), seed=scenario.seed, telemetry=sim_telemetry
    )
    system.start()
    busy_wall = 0.0
    busy_records = 0
    latencies: list[float] = []
    for burst in range(bursts):
        measured = burst >= warmup
        started = time.perf_counter()
        for _ in range(burst_records):
            loop.now += arrival
            system.ingest(next(lines))
        if measured:
            busy_wall += time.perf_counter() - started
            busy_records += burst_records
        system.flush_ingest()  # clear burst leftovers before the trickle
        for _ in range(trickle_records):
            system.ingest(next(lines))
            enqueued = loop.now
            for _ in range(10_000):
                if system.dispatcher.pending_batch_records == 0:
                    break
                loop.now += poll
                system.poll_flush()
            else:
                raise RunnerError(
                    f"{scenario.name}: trickle record never flushed"
                )
            if measured:
                latencies.append(loop.now - enqueued)
    latencies.sort()
    metrics = {
        "throughput_rps": busy_records / busy_wall if busy_wall else 0.0,
        "p50_latency_s": latencies[len(latencies) // 2],
        "p99_latency_s": latencies[int(0.99 * (len(latencies) - 1))],
        "final_batch_size": float(system.dispatcher.batch_size),
    }
    return _scorecard(
        scenario, metrics, counters=_telemetry_counters(sim_telemetry)
    )


def _run_churn(scenario, data_root, telemetry) -> list[Scorecard]:
    """Throughput trajectory across a scripted membership-churn event.

    Emits one card per publication (``phase`` in the key) plus a
    summary card.
    """
    del data_root
    from repro.telemetry.clock import WALL_CLOCK

    if scenario.runtime != "threaded":
        raise RunnerError(
            f"{scenario.name}: the churn workload drives the threaded "
            "runtime (per-node threads crash/rejoin in-process)"
        )
    warmup = int(scenario.param("warmup_pubs", 2))
    baseline_pubs = int(scenario.param("baseline_pubs", 3))
    recovery_pubs = int(scenario.param("recovery_pubs", 5))
    victim = int(scenario.param("victim", 1))
    config = build_config(scenario)
    generator = dataset(scenario.dataset).generator_factory(
        scenario.stream_seed
    )
    from repro.runtime.cluster import ThreadedFresque

    runtime = ThreadedFresque(
        config, _cipher(scenario), seed=scenario.seed, telemetry=telemetry
    )
    series: list[dict] = []
    with runtime:
        def run_publication(lines, events=()) -> float:
            slots: dict[int, list] = {}
            for position, action in events:
                slots.setdefault(position, []).append(action)
            publication = runtime.dispatcher.publication
            total = max(1, len(lines))
            started = WALL_CLOCK.now()
            for position, line in enumerate(lines):
                for action in slots.get(position, ()):
                    action(runtime)
                runtime.pump_dummies((position + 1) / (total + 1))
                runtime.ingest(line)
            runtime.close_publication()
            runtime.settle(publication, timeout=120.0)
            return WALL_CLOCK.now() - started

        def measure(phase: str, events=()) -> None:
            lines = list(generator.raw_lines(scenario.records))
            seconds = run_publication(lines, events)
            series.append(
                {
                    "phase": phase,
                    "records": len(lines),
                    "seconds": seconds,
                    "throughput_rps": len(lines) / seconds
                    if seconds > 0
                    else 0.0,
                }
            )

        for _ in range(warmup):
            measure("warmup")
        for _ in range(baseline_pubs):
            measure("baseline")
        # Churn publication: the victim crashes a third of the way in,
        # a fresh node is admitted two thirds in.
        measure(
            "churn",
            events=(
                (scenario.records // 3, lambda r: r.crash_node(victim)),
                (2 * scenario.records // 3, lambda r: r.admit_node()),
            ),
        )
        # Recovery: the victim rejoins at the interval open and the
        # stand-in retires, restoring the baseline fleet shape.
        measure(
            "recovery",
            events=(
                (0, lambda r: r.rejoin_node(victim)),
                (0, lambda r: r.retire_node(scenario.workers)),
            ),
        )
        for _ in range(recovery_pubs - 1):
            measure("recovery")
        rerouted = runtime.dispatcher.records_rerouted
        stale = runtime.checking.stale_batches_discarded
        epoch = runtime.dispatcher.membership.epoch
        active = sorted(runtime.dispatcher.membership.active_ids)

    cards = [
        Scorecard(
            scenario=f"{scenario.name}/pub{index}",
            key={**scenario.axes(), "phase": run["phase"], "pub": index},
            metrics={
                "records_total": float(run["records"]),
                "seconds": run["seconds"],
                "throughput_rps": run["throughput_rps"],
            },
        )
        for index, run in enumerate(series)
    ]
    baseline = statistics.median(
        run["throughput_rps"] for run in series if run["phase"] == "baseline"
    )
    churn_rate = next(
        run["throughput_rps"] for run in series if run["phase"] == "churn"
    )
    recovery = [
        run["throughput_rps"] for run in series if run["phase"] == "recovery"
    ]
    summary = Scorecard(
        scenario=f"{scenario.name}/summary",
        key={**scenario.axes(), "phase": "summary"},
        metrics={
            "baseline_rps": baseline,
            "churn_rps": churn_rate,
            "dip_fraction": 1.0 - churn_rate / baseline if baseline else 0.0,
            "steady_state_rps": max(recovery),
            "median_recovery_rps": statistics.median(recovery),
            "records_rerouted": float(rerouted),
            "stale_batches_discarded": float(stale),
            "final_epoch": float(epoch),
            "final_fleet_size": float(len(active)),
        },
        counters=_telemetry_counters(telemetry),
    )
    return cards + [summary]


def _run_conformance(scenario, data_root, telemetry) -> Scorecard:
    """Run the stream; report only the cloud-state fingerprint."""
    source = dataset(scenario.dataset)
    publications = source.lines(
        scenario.stream_seed, scenario.records, scenario.publications
    )
    config = build_config(scenario)
    system, close = _deploy(scenario, config, telemetry, data_root)
    try:
        for lines in publications:
            system.run_publication(lines)
        digest = _fingerprint_of(scenario, system)
    finally:
        close()
    return _scorecard(
        scenario,
        {
            "records_total": float(
                sum(len(lines) for lines in publications)
            )
        },
        fingerprint=digest,
    )


_WORKLOADS = {
    "ingest": _run_ingest,
    "publication": _run_publication,
    "burst-trickle": _run_burst_trickle,
    "churn": _run_churn,
    "conformance": _run_conformance,
}


def run_scenario(
    scenario: Scenario, *, data_root=None
) -> list[Scorecard]:
    """Execute one scenario; returns its scorecards (usually one).

    ``data_root`` hosts journals/checkpoints for durable scenarios (a
    temporary directory when omitted).
    """
    if scenario.workload not in _WORKLOADS:
        raise SpecError(f"unknown workload {scenario.workload!r}")
    # Validate the fault-plan name up front: a sync run ignores plans
    # (no injection points), which would otherwise hide a typo forever.
    _fault_plan(scenario)
    telemetry = Telemetry()
    workload = _WORKLOADS[scenario.workload]
    if data_root is None:
        with tempfile.TemporaryDirectory(prefix="benchfab-") as tmp:
            result = workload(scenario, tmp, telemetry)
    else:
        result = workload(scenario, data_root, telemetry)
    return result if isinstance(result, list) else [result]
