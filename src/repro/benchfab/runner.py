"""Executes declarative scenarios against the real system builders.

The runner owns every drive loop; scenarios own every knob.  One entry
point — :func:`run_scenario` — dispatches on ``scenario.workload``:

* ``ingest`` — ingest-only records/s (sync or durable collector);
* ``publication`` — full-publication records/s on any runtime, with
  optional named fault plans;
* ``burst-trickle`` — a bursty duty cycle: wall-clock burst throughput
  + simulated-clock trickle flush latency;
* ``conformance`` — run the stream, return only the cloud-state
  fingerprint (the cross-runtime byte-identity matrix).

Every run emits one :class:`~repro.benchfab.scorecard.Scorecard` in the
unified schema, with telemetry-registry counters and stage-latency
quantiles attached when the runtime supports a private registry.
"""

from __future__ import annotations

import pathlib
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


def _build_scheduled(scenario, config, telemetry, data_root):
    del data_root
    from repro.runtime.schedule import ScheduledFresque

    if scenario.durability == "durable":
        raise RunnerError(
            f"{scenario.name}: the scheduled runtime has no durable mode"
        )
    system = ScheduledFresque(
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


_BUILDERS = {
    "sync": _build_sync,
    "scheduled": _build_scheduled,
    "tcp": _build_tcp,
}


def _deploy(scenario, config, telemetry, data_root):
    """(system, close) for the scenario's runtime × durability cell."""
    return _BUILDERS[scenario.runtime](scenario, config, telemetry, data_root)


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
        # Matched-pair count: the TCP cluster reports it from
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
            fingerprint_digest(cloud_state_fingerprint(system))
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
    """A bursty duty cycle: wall-clock burst throughput, simulated-clock
    trickle latency (the delay flush is what bounds it)."""
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
    }
    return _scorecard(
        scenario, metrics, counters=_telemetry_counters(sim_telemetry)
    )


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
        digest = fingerprint_digest(cloud_state_fingerprint(system))
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
    "conformance": _run_conformance,
}


def run_scenario(
    scenario: Scenario, *, data_root=None
) -> list[Scorecard]:
    """Execute one scenario; returns its scorecard, in a list.

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
    return [result]
