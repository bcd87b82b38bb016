"""One benchmark cell: one workload, one seed, traced or not.

A cell makes several **repetitions**.  Each repetition generates the
workload's lines from the seed, builds a fresh deployment with the real
builders, drives it in a closed loop from this (single) caller thread,
runs the range queries, and hands everything it saw to the oracle.
Every timed segment — a publication's ingest, its close-to-receipt, a
block of queries, a recovery, a set-up — is bracketed by host-speed
calibration samples (:mod:`hostcal`) and reported host-normalised; the
value of a segment is the median of its repetitions.

Segments and what they time:

``setup``     dataset generation + construction + ``start()`` (TCP
              servers, data dir) up to the first ``ingest``.
``ingest``    first ``ingest`` of a publication to the last one's return
              (sync/TCP: ``pump_dummies`` + ``ingest`` per line; durable:
              the public ``run_publication`` minus its ``finish``).
``publish``   ``close_publication`` entry to the cloud receipt
              (``settle``); durable: the public ``finish_publication``.
``recovery``  ``RecoveryManager.recover()``.
"""

from __future__ import annotations

import gc
import os
import pathlib
import resource
import shutil
import statistics
import tempfile
import time
import traceback

from repro.benchfab.datasets import dataset
from repro.benchfab.runner import MASTER_KEY
from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher
from repro.crypto.keys import KeyStore

from benchmarks.ledger import layers
from benchmarks.ledger.hostcal import HostCalibrator
from benchmarks.ledger.oracle import Oracle
from benchmarks.ledger.tracing import Tracer
from benchmarks.ledger.workloads import (
    END_TO_END,
    LAYER_NAMES,
    PIPELINE_SEED,
    QUERY_WIDTHS,
    Workload,
    repetitions,
)

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Durable deployment settings (gowalla_durable).
CHECKPOINT_EVERY = 8192
SYNC_EVERY = 256

_clock = time.perf_counter


def _build_config(spec: Workload, source) -> FresqueConfig:
    return FresqueConfig(
        schema=source.schema(),
        domain=source.domain(),
        num_computing_nodes=2,
        epsilon=1.0,
        alpha=2.0,
        fanout=16,
        batch_size=spec.batch_size,
    )


def _build_cipher(spec: Workload):
    keys = KeyStore(MASTER_KEY, key_size=16)
    return AesCbcCipher(keys) if spec.cipher == "aes" else SimulatedCipher(keys)


def query_plan(domain, count: int) -> list[tuple[float, float]]:
    """The ``count`` range queries of a repetition.

    Widths cycle through ``QUERY_WIDTHS``; within each slot of the cycle
    positions advance by the golden ratio (mod 1), which spreads any number
    of queries evenly over the domain.  They do not depend on the seed: NASA's values are so skewed
    that a handful of queries over the dense head cost 100x the median,
    and drawing positions per seed made ``query_ms_p95`` swing 16-22%
    between seeds on an otherwise quiet host.  The seed changes the data
    under the queries, not where they look.
    """
    span = domain.dmax - domain.dmin
    plan = []
    slots = len(QUERY_WIDTHS)
    for index in range(count):
        slot, turn = index % slots, index // slots
        width = span * QUERY_WIDTHS[slot]
        position = (slot / slots + turn * 0.6180339887498949) % 1.0
        low = domain.dmin + position * (span - width)
        plan.append((low, low + width))
    return plan


class Repetition:
    """One fresh deployment driven through the workload once."""

    def __init__(
        self,
        spec: Workload,
        seed: int,
        calibrator: HostCalibrator,
        tracer: Tracer | None = None,
    ):
        self.spec = spec
        self.seed = seed
        self.cal = calibrator
        self.tracer = tracer
        #: Host-normalised seconds, one entry per measured publication.
        self.segments: dict[str, list[float]] = {"ingest": [], "publish": []}
        #: Wall seconds of the same segments as the clock read them: the
        #: tracer's self times are wall times, and reconcile against this.
        self.wall = 0.0
        #: Calibration samples taken while this repetition ran.
        self.samples = range(0)
        #: Host-normalised milliseconds of each planned query, in plan order.
        self.query_ms: list[float] = []
        self.setup_s = 0.0
        self.generate_s = 0.0
        #: Whether ``drive`` ran to its end; only then do the timings count.
        self.completed = False
        self.recovery_s: float | None = None
        self.recovery_report = None
        # Traced repetitions only: tracer deltas the ledger is built from.
        self.ingest_totals: dict = {}
        self.ingest_main_totals: dict = {}
        self.read_totals: dict = {}
        self.busy: dict[str, float] = {}
        self.ledger_wall = 0.0
        self.ledger_records = 0
        #: What the traced run's observers capture (see layers.install).
        self.captured: dict[str, list] = {
            "messages": [], "checkpoint_bytes": [], "nodes_visited": [0],
        }
        #: GC pause seconds / wall seconds of each streamed publication.
        self.gc_frac_by_publication: list[float] = []
        self.attempted = 0
        self.records_ingested = 0
        self.counts: dict[str, float] = {}
        self.data_dir: pathlib.Path | None = None
        self._closers: list = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        spec = self.spec
        before = self.cal.sample()
        started = _clock()
        source = dataset(spec.dataset)
        self.lines = source.lines(self.seed, spec.records, spec.publications)
        self.generate_s = _clock() - started
        self.config = _build_config(spec, source)
        self.cipher = _build_cipher(spec)
        self.telemetry = None
        if spec.telemetry:
            from repro.telemetry.context import Telemetry

            self.telemetry = Telemetry()
        if spec.deployment == "sync":
            system = FresqueSystem(
                self.config, self.cipher, seed=PIPELINE_SEED,
                telemetry=self.telemetry,
            )
            system.start()
        elif spec.deployment == "tcp":
            from repro.runtime.tcp import TcpFresqueCluster

            system = TcpFresqueCluster(
                self.config, self.cipher, seed=PIPELINE_SEED
            )
            system.start()
            self._closers.append(system.shutdown)
        else:
            from repro.durability.system import DurableFresqueSystem
            from repro.runtime.faults import FaultPlan

            tmp_root = OUT_DIR / "tmp"
            tmp_root.mkdir(parents=True, exist_ok=True)
            self.data_dir = pathlib.Path(
                tempfile.mkdtemp(prefix=f"{spec.name}-", dir=tmp_root)
            )
            crash_after = (spec.publications - 1) * spec.records + spec.crash_at
            system = DurableFresqueSystem(
                self.config, self.cipher, self.data_dir, seed=PIPELINE_SEED,
                fault_plan=FaultPlan().crash_collector(after_records=crash_after),
                checkpoint_every=CHECKPOINT_EVERY, sync_every=SYNC_EVERY,
            )
            system.start()
            self._closers.append(system.close)
        self.system = system
        elapsed = _clock() - started
        slowdown = self.cal.slowdown(before, self.cal.sample())
        self.setup_s = elapsed / slowdown
        self.generate_s /= slowdown
        self.samples = range(before, before + 1)

    def close(self) -> None:
        for closer in reversed(self._closers):
            closer()
        self._closers.clear()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    # -- driving -----------------------------------------------------------

    def _timed(self, inside: bool) -> None:
        if self.tracer is not None:
            self.tracer.timed = inside

    def _gc_seconds(self) -> float:
        if self.tracer is None:
            return 0.0
        return self.tracer.totals().get("process.gc", (0, 0.0, 0.0))[1]

    def _segment(self, name: str, seconds: float, *samples: int) -> None:
        """Book a segment of ``seconds`` bracketed by calibration ``samples``."""
        self.wall += seconds
        self.segments[name].append(seconds / self.cal.slowdown(*samples))

    def _counters(self, system) -> tuple[int, int]:
        return system.checking.dummies_passed, system.checking.records_removed

    def _judge_publication(self, oracle, system, publication, real, before):
        dummies, removed = self._counters(system)
        sealed = next(
            (r.removed_records for r in reversed(system.merger.reports)
             if r.publication == publication),
            0,
        )
        oracle.check_receipt(
            publication,
            system.cloud.receipt_for(publication),
            real,
            dummies - before[0],
            removed - before[1],
            sealed,
        )
        counts = self.counts
        counts["dummies"] = counts.get("dummies", 0) + dummies - before[0]
        counts["removed"] = counts.get("removed", 0) + removed - before[1]

    def drive(self, oracle: Oracle) -> None:
        """Ingest every publication, then run the query phase."""
        oracle.audit_merger(self.system.merger)
        tracer = self.tracer
        if tracer is not None:
            layers.install(tracer, self)
            self._marks = (
                tracer.totals(), tracer.totals("MainThread"),
                tracer.busy_by_thread(),
            )
        if self.spec.deployment == "durable":
            self._drive_durable(oracle)
        else:
            self._drive_streaming(oracle)
            self._mark_ingest_done()
        if self.spec.queries:
            self._query_phase(oracle)
        if tracer is not None:
            self.read_totals = layers.delta(tracer.totals(), self._marks[0])
        rejected = sum(node.rejected for node in self.system.computing_nodes)
        self.counts["rejected"] = rejected
        if rejected:
            oracle.fail(rejected, f"{rejected} lines rejected by computing nodes")
        self.samples = range(self.samples.start, len(self.cal.samples))
        self.completed = True

    def _mark_ingest_done(self) -> None:
        """Traced runs: close the ledger's ingest window (the measured
        publications) — what follows is the read path or the crash."""
        tracer = self.tracer
        if tracer is None:
            return
        everything, main, busy = self._marks
        now = tracer.totals()
        self.ingest_totals = layers.delta(now, everything)
        self.ingest_main_totals = layers.delta(
            tracer.totals("MainThread"), main
        )
        self.busy = {
            thread: seconds - busy.get(thread, 0.0)
            for thread, seconds in tracer.busy_by_thread().items()
        }
        self.ledger_wall = self.wall
        self.ledger_records = self.records_ingested
        self._marks = (now, main, busy)

    def _drive_streaming(self, oracle: Oracle) -> None:
        """Sync and TCP: ``pump_dummies`` + ``ingest`` per line, then
        ``close_publication`` + ``settle``."""
        spec, system, cal = self.spec, self.system, self.cal
        quiescent = spec.deployment == "sync"
        client = system.make_client() if spec.query_every else None
        plan = (
            iter(query_plan(
                self.config.domain,
                spec.publications * (spec.records // spec.query_every + 1),
            ))
            if spec.query_every
            else None
        )
        if client is not None and self.tracer is not None:
            layers.install_client(self.tracer, client)
        for ordinal, lines in enumerate(self.lines):
            before = self._counters(system)
            if self.tracer is not None:
                self.tracer.publication = ordinal
            count = len(lines)
            pump, ingest = system.pump_dummies, system.ingest
            gc_before = self._gc_seconds()
            cal_a = cal.sample()
            untimed = 0.0
            query_ms: list[float] = []
            self._timed(True)
            started = _clock()
            if client is None or ordinal == 0:
                for position, line in enumerate(lines):
                    pump((position + 1) / (count + 1))
                    ingest(line)
            else:
                every = spec.query_every
                for position, line in enumerate(lines):
                    pump((position + 1) / (count + 1))
                    ingest(line)
                    if (position + 1) % every == 0:
                        # Read-your-writes: force the in-flight batch
                        # through so the reference is exact.
                        system.flush_ingest()
                        low, high = next(plan)
                        t0 = _clock()
                        result = client.range_query(low, high)
                        t1 = _clock()
                        self._timed(False)
                        query_ms.append((t1 - t0) * 1e3)
                        oracle.check_query(
                            low, high, ordinal, position + 1, result,
                            system.cloud.engine.published,
                        )
                        self._note_result(result)
                        self._timed(True)
                        untimed += _clock() - t1
            ingested = _clock()
            self._timed(False)
            cal_b = cal.sample() if quiescent else None
            if not quiescent:
                self.counts["inbox_depth"] = self.counts.get(
                    "inbox_depth", 0
                ) + next(
                    node["pending"]
                    for node in system.health_report()["nodes"]
                    if node["name"] == "checking"
                )
            if quiescent and self.tracer is not None:
                self.counts["residents"] = self.counts.get(
                    "residents", 0
                ) + len(system.checking.buffered_pairs())
            publication = system.dispatcher.publication
            self._timed(True)
            closing = _clock()
            system.close_publication()
            system.settle(publication)
            closed = _clock()
            self._timed(False)
            cal_c = cal.sample()
            if cal_b is None:
                # TCP: the node threads are busy until the receipt, so the
                # kernel can only run before the first line and after it.
                around_ingest = around_publish = (cal_a, cal_c)
            else:
                around_ingest, around_publish = (cal_a, cal_b), (cal_b, cal_c)
            self._segment(
                "ingest", ingested - started - untimed, *around_ingest
            )
            self._segment("publish", closed - closing, *around_publish)
            if self.tracer is not None:
                self.gc_frac_by_publication.append(
                    (self._gc_seconds() - gc_before)
                    / (ingested - started - untimed + closed - closing)
                )
            if query_ms:
                factor = cal.slowdown(*around_ingest)
                self.query_ms.extend(ms / factor for ms in query_ms)
            self.attempted += count + len(query_ms)
            self.records_ingested += count
            self._judge_publication(oracle, system, publication, count, before)

    def _drive_durable(self, oracle: Oracle) -> None:
        """Durable: the public ``run_publication`` (the only public path
        that journals ``rawb`` group-commit frames), a timer on the
        public ``finish_publication``, then crash, recover, finish."""
        from repro.durability.recovery import RecoveryManager
        from repro.durability.system import CollectorCrash

        spec, system, cal = self.spec, self.system, self.cal
        finish_seconds = [0.0]
        finish = system.finish_publication

        def timed_finish():
            t0 = _clock()
            try:
                return finish()
            finally:
                finish_seconds[0] = _clock() - t0

        system.finish_publication = timed_finish
        for ordinal, lines in enumerate(self.lines[:-1]):
            before = self._counters(system)
            if self.tracer is not None:
                self.tracer.publication = ordinal
            cal_a = cal.sample()
            self._timed(True)
            started = _clock()
            system.run_publication(lines)
            done = _clock()
            self._timed(False)
            cal_c = cal.sample()
            self._segment(
                "ingest", done - started - finish_seconds[0], cal_a, cal_c
            )
            self._segment("publish", finish_seconds[0], cal_a, cal_c)
            self.attempted += len(lines)
            self.records_ingested += len(lines)
            self._judge_publication(oracle, system, ordinal, len(lines), before)

        self._mark_ingest_done()
        # The last publication: crash, recover, finish.
        lines = self.lines[-1]
        ordinal = len(self.lines) - 1
        before = self._counters(system)
        if self.tracer is not None:
            self.tracer.publication = ordinal
        try:
            system.run_publication(lines)
            oracle.fail(1, "the injected collector crash never fired")
        except CollectorCrash:
            pass
        cal_a = cal.sample()
        started = _clock()
        recovered, report = RecoveryManager(
            self.config, self.cipher, self.data_dir, cloud=system.cloud,
            seed=PIPELINE_SEED + 101, checkpoint_every=CHECKPOINT_EVERY,
            sync_every=SYNC_EVERY,
        ).recover()
        elapsed = _clock() - started
        cal_c = cal.sample()
        self.recovery_s = elapsed / cal.slowdown(cal_a, cal_c)
        self.recovery_report = report
        self._closers.append(recovered.close)
        self.system = recovered
        oracle.audit_merger(recovered.merger)
        if self.tracer is not None:
            layers.install(self.tracer, self)
        # The journal holds whole rawb chunks: the chunk the crash landed
        # in was journalled in full and is replayed in full.
        size = spec.batch_size
        resume = min(len(lines), (spec.crash_at // size + 1) * size)
        recovered.run_publication(lines[resume:])
        self.attempted += len(lines) + 1
        self.records_ingested += len(lines)
        self._judge_publication(oracle, recovered, ordinal, len(lines), before)
        accountant = recovered.accountant
        opened = recovered.dispatcher.publication + 1
        spent = self.config.epsilon * 52 - accountant.remaining_epsilon
        if (
            accountant.publications_granted != opened
            or abs(spent - opened * accountant.per_publication_epsilon) > 1e-9
        ):
            oracle.fail(
                1,
                f"epsilon ledger: {opened} publications opened, "
                f"{accountant.publications_granted} granted, {spent} spent",
            )

    # -- queries -----------------------------------------------------------

    def _note_result(self, result) -> None:
        counts = self.counts
        counts["ciphertexts"] = (
            counts.get("ciphertexts", 0) + result.ciphertexts_received
        )
        counts["kept"] = counts.get("kept", 0) + len(result.records)

    def _query_phase(self, oracle: Oracle) -> None:
        system, cal = self.system, self.cal
        client = system.make_client()
        if self.tracer is not None:
            layers.install_client(self.tracer, client)
            self.tracer.publication = -1
        plan = query_plan(self.config.domain, self.spec.queries)
        published = system.cloud.engine.published
        current = system.dispatcher.publication
        block = max(10, len(plan) // 8)
        sample_before = cal.sample()
        for start in range(0, len(plan), block):
            raw = []
            for low, high in plan[start : start + block]:
                self._timed(True)
                t0 = _clock()
                result = client.range_query(low, high)
                raw.append((_clock() - t0) * 1e3)
                self._timed(False)
                oracle.check_query(low, high, current, 0, result, published)
                self._note_result(result)
            sample_after = cal.sample()
            factor = cal.slowdown(sample_before, sample_after)
            self.query_ms.extend(ms / factor for ms in raw)
            sample_before = sample_after
        self.attempted += len(plan)

    # -- results -----------------------------------------------------------

    def seconds(self) -> float:
        """Host-normalised seconds of every measured publication."""
        return sum(self.segments["ingest"]) + sum(self.segments["publish"])


def pin_to_one_cpu() -> None:
    """Run the whole cell on one CPU (the last one this process may use).

    The load generator and the deployment share one interpreter lock, so
    a second core adds no throughput — but with it the kernel bounces the
    TCP cluster's five node threads between cores, and ``gowalla_tcp``
    then has two regimes (17k rec/s with 1030 ms publishing, or 19k with
    730 ms; ten-seed spread 16%) chosen by the scheduler, not the code.
    Pinned, it runs at 20k rec/s with a 5% spread.  The single-threaded
    workloads only lose their migrations.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_cell(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one cell; returns the result document (see :mod:`cli`)."""
    pin_to_one_cpu()
    calibrator = HostCalibrator()
    total = repetitions(seconds)
    if trace:  # at least one untraced repetition as the overhead's base
        total = max(2, total)
    traced_count = total // 2 if trace else 0
    tracer = Tracer() if trace else None
    oracle: Oracle | None = None
    failures: list[str] = []
    peak_rss_mb = 0.0
    done: list[Repetition] = []
    for traced_run in [False] * (total - traced_count) + [True] * traced_count:
        repetition = Repetition(
            spec, seed, calibrator, tracer if traced_run else None
        )
        if traced_run:
            tracer.install_process_hooks()
        try:
            repetition.setup()
            if oracle is None:
                oracle = Oracle(repetition.config, repetition.cipher)
                for lines in repetition.lines:
                    oracle.add_publication(lines)
            oracle.dropped = {}
            repetition.drive(oracle)
            if traced_run:
                layers.collect_counts(repetition)
        except Exception as exc:  # the cell goes on; the failure counts
            where = traceback.extract_tb(exc.__traceback__)[-1]
            failures.append(
                f"{type(exc).__name__}: {exc} "
                f"({pathlib.Path(where.filename).name}:{where.lineno})"
            )
        finally:
            if traced_run:
                tracer.uninstall()
            repetition.close()
        if not peak_rss_mb:
            # High-water mark of a process that ran the workload once;
            # later repetitions sit on the first one's leftovers.
            usage = resource.getrusage(resource.RUSAGE_SELF)
            peak_rss_mb = usage.ru_maxrss / 1024.0
        # Drop the deployment before the next repetition builds its own,
        # and start every repetition from the same collector state.
        repetition.system = None
        gc.collect()
        done.append(repetition)

    # Only repetitions that ran to their end are measured; one that raised
    # is a failed operation, and a cell without a full set reports zeros
    # beside ``correct: false`` rather than no result line at all.
    untraced = [r for r in done if r.completed and r.tracer is None]
    traced = [r for r in done if r.completed and r.tracer is not None]
    measured = bool(untraced) and (bool(traced) or not trace)
    failed = len(failures) + (oracle.failed if oracle else 0)
    attempted = sum(r.attempted for r in done) + len(failures)
    result = {
        "workload": spec.name,
        "seed": seed,
        "trace": bool(trace),
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "failures": failures + (oracle.failures if oracle else []),
        "repetitions": len(untraced),
        "host_slowdown": calibrator.mean_slowdown(),
        "end_to_end": dict.fromkeys(
            [name for name, _, _, _ in END_TO_END] + ["failed_frac"], 0.0
        ),
        "n": {},
    }
    result["end_to_end"]["failed_frac"] = failed / result["attempted"]
    if not measured:
        if trace:
            result["layers"] = dict.fromkeys(LAYER_NAMES, 0.0)
        return result

    records = spec.records * (
        spec.publications - (1 if spec.deployment == "durable" else 0)
    )
    ingest = layers.median_columns(r.segments["ingest"] for r in untraced)
    publish = layers.median_columns(r.segments["publish"] for r in untraced)
    queries = layers.median_columns(r.query_ms for r in untraced)
    result["end_to_end"].update(
        setup_s=statistics.median(r.setup_s for r in untraced),
        ingest_rps=records / (sum(ingest) + sum(publish)),
        publish_ms_p50=statistics.median(publish) * 1e3,
        query_ms_p50=statistics.median(queries),
        query_ms_p95=layers.percentile(queries, 0.95),
        peak_rss_mb=peak_rss_mb,
    )
    if spec.deployment == "durable":
        result["end_to_end"]["recovery_s"] = statistics.median(
            r.recovery_s for r in untraced
        )
    result["n"] = {
        "publish_ms_p50": len(publish),
        "query_ms_p50": len(queries),
        "query_ms_p95": len(queries),
    }
    if trace:
        result["layers"] = layers.ledger(
            spec, tracer, traced, untraced, oracle, calibrator
        )
        result["gc_frac_by_publication"] = traced[-1].gc_frac_by_publication
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        result["trace_file"] = str(OUT_DIR / f"trace_{spec.name}.jsonl")
        result["spans"] = tracer.write_spans(result["trace_file"])
    return result
