"""The per-layer cost ledger of a traced cell.

Three sources, as ISSUE 12 fixes them:

* **wrap** — :class:`~benchmarks.ledger.tracing.Tracer` wrappers on the
  public methods of the objects the drivers expose; a row is the
  layer's *self* time (wrapped children and GC pauses excluded);
* **replay** — costs nested inside a handler that cannot be wrapped
  without editing ``src/`` are priced by timing the same public
  function over the workload's own lines, outside the pipeline;
* **count** — work done, read from public counters after the run.

``*_us_per_rec`` rows divide by real records, so the wrap rows plus
``ledger.residual_us_per_rec`` add up to ``1e6 / ingest_rps`` of the
traced repetition.  Replay rows are a breakdown *of* wrap rows (parse,
serialize, leaf offset sit inside ``on_raw_batch``), not extra rows.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.core.messages import PairBatch, RawBatch, ToCloudBatch
from repro.core.system import CollectorAwareQueryTarget
from repro.index.perturb import draw_noise_plan
from repro.index.template import LeafArrays
from repro.index.tree import IndexTree
from repro.records.serialize import (
    deserialize_record,
    parse_raw_line,
    serialize_record,
)
from repro.runtime.wire import decode_message, encode_message

from benchmarks.ledger.workloads import LAYER_NAMES, PIPELINE_SEED

#: Wrap names whose time belongs to the read path.
QUERY_ROWS = frozenset(
    {
        "client.range_query",
        "core.query_target.query",
        "cloud.query",
        "crypto.decrypt",
    }
)
#: The drivers' own methods: their self time is the pump/routing cost.
DRIVER_ROWS = (
    "core.system.ingest",
    "core.system.pump_dummies",
    "core.system.close_publication",
    "core.system.flush_ingest",
    "core.system.run_publication",
    "core.system.finish_publication",
)
#: How many of the workload's lines the stage replay prices.
REPLAY_LINES = 4000


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def install(tracer, repetition) -> None:
    """Wrap the deployment ``repetition`` just built (or recovered)."""
    system = repetition.system
    captured = repetition.captured
    wrap = tracer.wrap
    dispatcher = system.dispatcher
    wrap(dispatcher, "on_raw", "core.dispatcher.on_raw", span=False)
    wrap(dispatcher, "due_dummies", "core.dispatcher.due_dummies", span=False)
    wrap(dispatcher, "start_publication", "core.dispatcher.start_publication")
    wrap(dispatcher, "end_publication", "core.dispatcher.end_publication")
    for node in system.computing_nodes:
        wrap(node, "on_raw_batch", "core.computing_node.on_raw_batch")
        wrap(node, "on_publishing", "core.computing_node.on_publishing")
        wrap(node, "on_done", "core.computing_node.on_done")
    checking = system.checking
    wrap(checking, "on_new_publication", "core.checking.on_new_publication")
    wrap(checking, "on_pair_batch", "core.checking.on_pair_batch")
    wrap(checking, "on_publishing", "core.checking.on_publishing")
    wrap(checking, "on_cn_publishing", "core.checking.on_cn_publishing")
    merger = system.merger
    wrap(merger, "on_template", "core.merger.on_template")
    wrap(merger, "on_removed", "core.merger.on_removed", span=False)
    wrap(merger, "on_al", "core.merger.on_al")
    cloud = system.cloud
    if "query" not in vars(cloud):  # the cloud survives a collector crash
        wrap(cloud, "announce_publication", "cloud.announce_publication")
        wrap(cloud, "receive_pairs", "cloud.receive_pairs")
        wrap(cloud, "receive_publication", "cloud.receive_publication")
        nodes_visited = captured["nodes_visited"]

        def count_nodes(args, result):
            nodes_visited[0] += result.nodes_visited

        wrap(cloud, "query", "cloud.query", observe=count_nodes)
    cipher = repetition.cipher
    if "encrypt" not in vars(cipher):  # shared with a recovered collector
        wrap(cipher, "encrypt", "crypto.encrypt", span=False)
        wrap(cipher, "encrypt_batch", "crypto.encrypt_batch")
        wrap(cipher, "decrypt", "crypto.decrypt", span=False)
    wrap(system, "ingest", "core.system.ingest", span=False)
    wrap(system, "pump_dummies", "core.system.pump_dummies", span=False)
    # ``settle`` stays unwrapped: on TCP it is the driver *waiting* for the
    # receipt, which belongs in the residual, not in anybody's self time.
    wrap(system, "close_publication", "core.system.close_publication")
    if hasattr(system, "flush_ingest"):  # the TCP cluster has none
        wrap(system, "flush_ingest", "core.system.flush_ingest", span=False)
    if hasattr(system, "journal"):
        wrap(system, "run_publication", "core.system.run_publication")
        wrap(system, "finish_publication", "core.system.finish_publication")
        wrap(system, "checkpoint", "durability.checkpoint")
        journal = system.journal
        wrap(journal, "append_raw_batch", "durability.journal.append_raw_batch")
        wrap(journal, "append_open", "durability.journal.append_open")
        wrap(journal, "append_close", "durability.journal.append_close")
        wrap(journal, "append_commit", "durability.journal.append_commit")
        sizes = captured["checkpoint_bytes"]
        wrap(
            system.checkpoints, "save", "durability.checkpoint.save",
            observe=lambda args, path: sizes.append(path.stat().st_size),
        )
        wrap(system.accountant, "grant", "durability.ledger.grant")
        wrap(system.accountant, "commit", "durability.ledger.commit")
    router = getattr(system, "router", None)
    if router is not None:
        messages = captured["messages"]

        def keep_batches(args, result):
            if isinstance(args[1], (RawBatch, PairBatch, ToCloudBatch)):
                messages.append(args)

        wrap(router, "send", "runtime.router.send", observe=keep_batches)


def install_client(tracer, client) -> None:
    """Wrap a query client and, through its public class, the collector-
    aware target ``make_client`` builds for it."""
    tracer.wrap(client, "range_query", "client.range_query")
    tracer.wrap(CollectorAwareQueryTarget, "query", "core.query_target.query")


# ---------------------------------------------------------------------------
# Counts read after the run
# ---------------------------------------------------------------------------


def collect_counts(repetition) -> None:
    """Public counters of the finished deployment, before it is closed."""
    system, counts = repetition.system, repetition.counts
    nodes = system.computing_nodes
    counts["ciphertext_bytes"] = sum(node.bytes_out for node in nodes)
    counts["encrypted"] = sum(node.encrypted for node in nodes)
    counts["stored_bytes"] = system.cloud.store.total_bytes
    counts["pairs"] = sum(
        system.cloud.receipt_for(dataset.publication).records_matched
        for dataset in system.cloud.engine.published
    )
    router = getattr(system, "router", None)
    if router is not None:
        counts["frames"] = sum(router.sent_to.values())
        counts["retries"] = router.retries + router.reconnects
    if hasattr(system, "journal"):
        counts["journal_bytes"] = system.journal.byte_size
        counts["line_bytes"] = sum(
            len(line.encode("utf-8"))
            for lines in repetition.lines
            for line in lines
        )
    telemetry = repetition.telemetry
    if telemetry is not None:
        counts["observations"] = sum(
            sample.value
            for sample in telemetry.registry.samples()
            if sample.kind == "histogram"
        )
        counts["telemetry_spans"] = telemetry.recorder.recorded


# ---------------------------------------------------------------------------
# Stage replay
# ---------------------------------------------------------------------------


def _per_item(function, items) -> float:
    """Seconds per item of calling ``function`` on each of ``items``."""
    started = time.perf_counter()
    for item in items:
        function(item)
    return (time.perf_counter() - started) / max(1, len(items))


def replay_prices(repetition, calibrator) -> tuple[dict[str, float], int]:
    """Price the unwrappable stages over the workload's own lines.

    Returns the host-normalised prices and the bytes of every batch frame
    the repetition sent (0 off TCP)."""
    before = calibrator.sample()
    config = repetition.config
    schema, domain = config.schema, config.domain
    lines = repetition.lines[0][:REPLAY_LINES]
    prices = {
        "records.parse_us_per_rec": 1e6
        * _per_item(lambda line: parse_raw_line(line, schema), lines)
    }
    records = [parse_raw_line(line, schema) for line in lines]
    prices["records.serialize_us_per_rec"] = 1e6 * _per_item(
        lambda record: serialize_record(record, schema), records
    )
    payloads = [serialize_record(record, schema) for record in records]
    prices["records.deserialize_us_per_result"] = 1e6 * _per_item(
        lambda payload: deserialize_record(payload, schema), payloads
    )
    values = [record.indexed_value(schema) for record in records]
    prices["index.leaf_offset_us_per_rec"] = 1e6 * _per_item(
        domain.leaf_offset, values
    )
    shape = IndexTree(domain, fanout=config.fanout)
    rng = random.Random(PIPELINE_SEED)
    started = time.perf_counter()
    plan = draw_noise_plan(shape, config.epsilon, rng=rng)
    prices["privacy.noise_plan_ms_per_pub"] = 1e3 * (
        time.perf_counter() - started
    )
    arrays = LeafArrays(plan.leaf_noise)
    prices["index.array_check_us_per_rec"] = 1e6 * _per_item(
        arrays.check_and_update, [domain.leaf_offset(v) for v in values]
    )
    messages = repetition.captured["messages"]
    wire_bytes = 0
    if messages:
        # Every batch frame of the repetition, priced per real record.
        items = sum(len(lines) for lines in repetition.lines)
        started = time.perf_counter()
        frames = [encode_message(*args) for args in messages]
        encoded = time.perf_counter()
        for frame in frames:
            decode_message(frame[4:])  # past the length prefix
        decoded = time.perf_counter()
        prices["runtime.wire.encode_us_per_rec"] = (
            1e6 * (encoded - started) / max(1, items)
        )
        prices["runtime.wire.decode_us_per_rec"] = (
            1e6 * (decoded - encoded) / max(1, items)
        )
        wire_bytes = sum(len(frame) for frame in frames)
    slowdown = calibrator.slowdown(before, calibrator.sample())
    prices = {name: price / slowdown for name, price in prices.items()}
    return prices, wire_bytes


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample at ``fraction`` of the order)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median_columns(rows) -> list[float]:
    """Per position (a publication, a planned query): the median over the
    repetitions' ``rows``."""
    return [statistics.median(column) for column in zip(*rows)]


def delta(after: dict, before: dict) -> dict:
    return {
        name: tuple(a - b for a, b in zip(entry, before.get(name, (0, 0, 0))))
        for name, entry in after.items()
    }


def _add(total: dict, part: dict) -> None:
    for name, entry in part.items():
        previous = total.get(name, (0, 0.0, 0.0))
        total[name] = tuple(a + b for a, b in zip(previous, entry))


def ledger(
    spec, tracer, traced, untraced, oracle, calibrator
) -> dict[str, float]:
    """Every per-layer metric of the cell (0.0 where the layer is absent)."""
    out = dict.fromkeys(LAYER_NAMES, 0.0)
    last = traced[-1]
    ingest: dict = {}
    main: dict = {}
    reads: dict = {}
    for repetition in traced:
        _add(ingest, repetition.ingest_totals)
        _add(main, repetition.ingest_main_totals)
        _add(reads, repetition.read_totals)
    mixed = bool(spec.query_every)
    # One factor for the whole ledger: the host's mean slowdown while the
    # traced repetitions ran.  Every time below is divided by it, so the
    # rows are in the end-to-end metrics' units and still add up to the wall.
    host = calibrator.slowdown(*(i for r in traced for i in r.samples))
    real = sum(r.ledger_records for r in traced)
    wall = sum(r.ledger_wall for r in traced) / host
    pubs = sum(len(r.segments["ingest"]) for r in traced)
    all_pubs = len(traced) * spec.publications

    def self_s(name, table=ingest):
        return table.get(name, (0, 0.0, 0.0))[2] / host

    def total_s(name, table=ingest):
        return table.get(name, (0, 0.0, 0.0))[1] / host

    def calls(name, table=ingest):
        return table.get(name, (0, 0.0, 0.0))[0]

    def us_per_rec(name):
        return 1e6 * self_s(name) / real

    def ms_per_pub(*names):
        return 1e3 * sum(self_s(name) for name in names) / pubs

    prices, wire_bytes = replay_prices(last, calibrator)
    out.update(prices)
    out["datasets.generate_us_per_line"] = (
        1e6 * last.generate_s / (spec.records * spec.publications)
    )
    out["core.system.pump_us_per_rec"] = sum(
        us_per_rec(name) for name in DRIVER_ROWS
    )
    out["core.dispatcher.on_raw_us_per_rec"] = us_per_rec("core.dispatcher.on_raw")
    out["core.dispatcher.due_dummies_us_per_rec"] = us_per_rec(
        "core.dispatcher.due_dummies"
    )
    out["core.dispatcher.start_publication_ms_per_pub"] = ms_per_pub(
        "core.dispatcher.start_publication"
    )
    out["core.dispatcher.batches_per_pub"] = (
        calls("core.computing_node.on_raw_batch") / pubs
    )
    out["core.computing_node.on_raw_batch_us_per_rec"] = us_per_rec(
        "core.computing_node.on_raw_batch"
    )
    out["core.checking.on_pair_batch_us_per_rec"] = us_per_rec(
        "core.checking.on_pair_batch"
    )
    out["core.checking.finalise_ms_per_pub"] = ms_per_pub(
        "core.checking.on_publishing", "core.checking.on_cn_publishing"
    )
    out["core.merger.on_al_ms_per_pub"] = ms_per_pub("core.merger.on_al")
    out["crypto.encrypt_batch_us_per_rec"] = us_per_rec("crypto.encrypt_batch")
    single_calls = calls("crypto.encrypt")
    if single_calls:
        out["crypto.encrypt_single_us_per_call"] = (
            1e6 * total_s("crypto.encrypt") / single_calls
        )
    out["crypto.encrypt_single_calls_per_pub"] = single_calls / pubs
    out["cloud.receive_publication_ms_per_pub"] = ms_per_pub(
        "cloud.receive_publication"
    )
    out["durability.journal.append_us_per_rec"] = us_per_rec(
        "durability.journal.append_raw_batch"
    )
    out["durability.fsyncs_per_1k_rec"] = 1e3 * calls("os.fsync") / real
    out["durability.fsync_ms_total"] = 1e3 * total_s("os.fsync") / len(traced)
    out["durability.checkpoint.count_per_pub"] = (
        calls("durability.checkpoint") / pubs
    )
    grants = calls("durability.ledger.grant")
    if grants:
        out["durability.ledger.grant_ms_per_pub"] = (
            1e3 * total_s("durability.ledger.grant") / grants
        )
    checkpoints = tracer.durations("durability.checkpoint")
    if checkpoints:
        out["durability.checkpoint.save_ms_p50"] = (
            1e3 * statistics.median(checkpoints) / host
        )
        out["durability.checkpoint.bytes_p50"] = float(
            statistics.median(last.captured["checkpoint_bytes"])
        )
    out["runtime.router.send_us_per_rec"] = us_per_rec("runtime.router.send")

    # Counts (whole repetitions, crashed publication included).
    counts = {}
    for repetition in traced:
        for name, value in repetition.counts.items():
            counts[name] = counts.get(name, 0) + value
    every = len(traced) * spec.publications * spec.records
    pairs = counts.get("pairs", 0)
    out["cloud.receive_pairs_us_per_pair"] = (
        1e6 * self_s("cloud.receive_pairs") / max(1, pairs)
        * (all_pubs / pubs)  # receive_pairs rows cover measured pubs only
    )
    out["cloud.pairs_per_pub"] = pairs / all_pubs
    out["cloud.stored_bytes_per_rec"] = counts.get("stored_bytes", 0) / every
    out["crypto.ciphertext_bytes_per_rec"] = counts.get(
        "ciphertext_bytes", 0
    ) / max(1, counts.get("encrypted", 0))
    out["core.dispatcher.dummies_per_pub"] = counts.get("dummies", 0) / all_pubs
    out["core.checking.removed_per_pub"] = counts.get("removed", 0) / all_pubs
    out["core.checking.randomer_residents"] = (
        counts.get("residents", 0) / all_pubs
    )
    out["core.computing_node.rejected_total"] = float(counts.get("rejected", 0))
    out["core.merger.overflow_dropped_per_pub"] = (
        sum(sum(lost.values()) for lost in oracle.dropped.values())
        / spec.publications
    )
    if counts.get("journal_bytes"):
        out["durability.journal.bytes_per_raw_byte"] = (
            counts["journal_bytes"] / counts["line_bytes"]
        )
    report = last.recovery_report
    if report is not None:
        out["durability.recovery_s"] = statistics.median(
            r.recovery_s for r in untraced
        )
        out["durability.recovery.replayed_raw"] = float(report.replayed_raw)
        out["durability.recovery.replay_us_per_rec"] = (
            1e6 * last.recovery_s / max(1, report.replayed_raw)
        )
    if wire_bytes:
        out["runtime.wire.bytes_per_rec"] = wire_bytes / (
            spec.publications * spec.records
        )
        out["runtime.tcp.frames_per_pub"] = counts["frames"] / all_pubs
        out["runtime.tcp.retries_total"] = float(counts["retries"])
        out["runtime.tcp.inbox_depth_at_close"] = (
            counts.get("inbox_depth", 0) / all_pubs
        )
        busy: dict[str, float] = {}
        for repetition in traced:
            for thread, seconds in repetition.busy.items():
                busy[thread] = busy.get(thread, 0.0) + seconds / host
        workers = [
            seconds for thread, seconds in busy.items()
            if thread.startswith("tcp-worker-cn-")
        ]
        out["runtime.tcp.driver_busy_frac"] = busy.get("MainThread", 0.0) / wall
        out["runtime.tcp.cn_busy_frac"] = (
            sum(workers) / len(workers) / wall if workers else 0.0
        )
        out["runtime.tcp.checking_busy_frac"] = (
            busy.get("tcp-worker-checking", 0.0) / wall
        )
        out["runtime.tcp.cloud_busy_frac"] = (
            busy.get("tcp-worker-cloud", 0.0) / wall
        )
    out["runtime.tcp.drain_ms_per_pub"] = 1e3 * statistics.mean(
        seconds for r in traced for seconds in r.segments["publish"]
    )

    # The read path: per query, from the query phase (or, mixed, ingest).
    table = ingest if mixed else reads
    queries = calls("client.range_query", table)
    if queries:
        out["cloud.query_ms_per_query"] = (
            1e3 * self_s("cloud.query", table) / queries
        )
        out["core.query_target.collector_scan_ms_per_query"] = (
            1e3 * self_s("core.query_target.query", table) / queries
        )
        out["client.post_process_ms_per_query"] = (
            1e3 * self_s("client.range_query", table) / queries
        )
        out["index.nodes_visited_per_query"] = (
            sum(r.captured["nodes_visited"][0] for r in traced) / queries
        )
        out["client.ciphertexts_per_query"] = (
            counts.get("ciphertexts", 0) / queries
        )
    decrypts = calls("crypto.decrypt", table)
    if decrypts:
        out["crypto.decrypt_us_per_result"] = (
            1e6 * total_s("crypto.decrypt", table) / decrypts
        )
    if counts.get("ciphertexts"):
        out["client.useful_frac"] = counts["kept"] / counts["ciphertexts"]
    if oracle.exact_matches:
        out["client.recall_frac"] = oracle.returned / oracle.exact_matches
    out["client.query_ms_p99"] = percentile(
        median_columns(r.query_ms for r in untraced), 0.99
    )

    # Telemetry (nasa_telemetry only).
    if counts.get("observations"):
        out["telemetry.observations_per_rec"] = counts["observations"] / every
        out["telemetry.spans_per_pub"] = counts["telemetry_spans"] / all_pubs
        # telemetry.enabled_overhead_frac needs nasa_sync's rate beside
        # this workload's: ``run`` fills it in, one cell leaves it 0.

    # Process and reconciliation.
    out["process.gc_frac"] = total_s("process.gc") / wall
    out["process.gc_gen2_collections"] = (
        tracer.gc_collections[2] / len(traced)
    )
    out["process.host_slowdown"] = calibrator.mean_slowdown()
    # GC pauses of the harness's own bookkeeping sit outside the wall.
    skipped = {"harness.gc"} if mixed else QUERY_ROWS | {"harness.gc"}
    attributed = sum(
        entry[2] for name, entry in main.items() if name not in skipped
    ) / host
    out["ledger.attributed_frac"] = attributed / wall
    out["ledger.residual_us_per_rec"] = 1e6 * (wall - attributed) / real
    traced_seconds = statistics.median(r.seconds() for r in traced)
    base_seconds = statistics.median(r.seconds() for r in untraced)
    out["ledger.trace_overhead_frac"] = 1.0 - base_seconds / traced_seconds
    return out
