"""The benchmark's fixed tables: workloads, end-to-end metrics, layer metrics.

Names here are binding — later issues cite them, ``BENCHMARK.json``
repeats them, and the smoke test checks the two agree.  Sizes are per
*repetition*: one fresh deployment that ingests ``publications``
publications of ``records`` real records each.  ``--seconds`` sets how
many repetitions a run makes (see :func:`repetitions`), never the sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Pipeline seed of every deployment (``--seed`` seeds only the data).
PIPELINE_SEED = 7

#: Every workload is sized so that one repetition measures about this many
#: seconds of ingestion and queries on the reference host.
REPETITION_SECONDS = 5.0

#: Query widths, as fractions of the indexed domain, cycled in order.
QUERY_WIDTHS = (0.001, 0.001, 0.005, 0.005, 0.02)


@dataclass(frozen=True)
class Workload:
    """One named workload (sizes per repetition)."""

    name: str
    why: str
    dataset: str
    deployment: str  # "sync" | "tcp" | "durable"
    records: int
    publications: int
    cipher: str = "sim"
    telemetry: bool = False
    batch_size: int = 64
    #: Range queries after ingestion (0 when ``query_every`` is set); sized
    #: so a repetition's query phase stays near 3 s on the reference host.
    queries: int = 400
    #: ``gowalla_mixed``: one query after every this many ingests.
    query_every: int = 0
    #: ``gowalla_durable``: crash this many records into the last publication.
    crash_at: int = 0

    def scaled(self, factor: float) -> "Workload":
        """The same workload at ``factor`` of its size (``--smoke``)."""
        return replace(
            self,
            records=max(400, int(self.records * factor)),
            queries=max(20, int(self.queries * factor)) if self.queries else 0,
            crash_at=int(self.crash_at * factor),
        )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="nasa_sync",
        why="Longest lines and 3421 leaves: parse, dispatch/check, the noise "
        "plan and 54k merger padding encryptions per publication do the "
        "work; crypto is cheap, runtime and durability are absent.",
        dataset="nasa",
        deployment="sync",
        records=40_000,
        publications=2,
    ),
    Workload(
        name="nasa_telemetry",
        why="nasa_sync with Telemetry() on: every probe and the flight "
        "recorder run, so enabled telemetry overhead is this workload's "
        "ingest_rps against nasa_sync's, which must stay flat.",
        dataset="nasa",
        deployment="sync",
        records=40_000,
        publications=2,
        telemetry=True,
    ),
    Workload(
        name="gowalla_tcp",
        why="TcpFresqueCluster with 2 computing nodes: wire encode/decode, "
        "socket hops, inbox queues and the GIL do the work that the sync "
        "workloads bypass entirely.",
        dataset="gowalla",
        deployment="tcp",
        records=20_000,
        publications=3,
        queries=320,
    ),
    Workload(
        name="gowalla_durable",
        why="Durable collector, batch 256: journal, checkpoints every 8192 "
        "records, ledger fsyncs, then crash + recovery. recovery_s exists "
        "only here, so it rides as per_layer durability.recovery_s.",
        dataset="gowalla",
        deployment="durable",
        records=30_000,
        publications=3,
        batch_size=256,
        queries=240,
        crash_at=23_000,
    ),
    Workload(
        name="gowalla_mixed",
        why="Reads beside writes: a query after every 48 ingests scans all "
        "published datasets, in-flight pairs, the randomer buffer and the "
        "merger while the publication count grows.",
        dataset="gowalla",
        deployment="sync",
        records=12_000,
        publications=4,
        queries=0,
        query_every=48,
    ),
    Workload(
        name="gowalla_aes",
        why="AesCbcCipher, the paper's cipher: pure-Python AES is over 90% "
        "of the work (record and padding encryption, query decryption); "
        "on the other workloads crypto changes predict no change.",
        dataset="gowalla",
        deployment="sync",
        records=8_000,
        publications=2,
        cipher="aes",
        queries=80,  # 26 ms each
    ),
)


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(
        f"unknown workload {name!r}; "
        f"known: {[w.name for w in WORKLOADS]}"
    )


def repetitions(seconds: float) -> int:
    """Fresh-deployment repetitions a run of ``seconds`` makes."""
    return max(1, int(seconds / REPETITION_SECONDS + 0.5))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
#: None is below ISSUE 12's 10 %; each is at least twice the widest
#: ten-seed quartile spread a quiet-host sweep has shown for the metric on
#: any workload (README, "How steady it is"), and the pipeline caps a
#: bound at 25 %.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ingest_rps", "records/s", "higher", 0.15),
    ("publish_ms_p50", "ms", "lower", 0.25),
    ("query_ms_p50", "ms", "lower", 0.25),
    ("query_ms_p95", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: End-to-end metrics the harness prints and compares but the driver
#: contract cannot carry (one is absent on five workloads, one is 0).
HARNESS_ONLY: tuple[tuple[str, str, str, float], ...] = (
    ("recovery_s", "s", "lower", 0.1),
    ("failed_frac", "ratio", "lower", 0.0),
)

#: (name, unit, better, source, moves, shows, flat)
LAYERS: tuple[tuple[str, str, str, str, str, str, str], ...] = (
    ("datasets.generate_us_per_line", "us", "lower", "timer", "setup_s", "nasa_sync", "-"),
    ("records.parse_us_per_rec", "us", "lower", "replay", "ingest_rps", "nasa_sync", "gowalla_aes"),
    ("records.serialize_us_per_rec", "us", "lower", "replay", "ingest_rps", "nasa_sync", "gowalla_aes"),
    ("records.deserialize_us_per_result", "us", "lower", "replay", "query_ms_p50", "gowalla_mixed", "gowalla_aes"),
    ("index.leaf_offset_us_per_rec", "us", "lower", "replay", "ingest_rps", "nasa_sync", "gowalla_aes"),
    ("index.array_check_us_per_rec", "us", "lower", "replay", "ingest_rps", "nasa_sync", "gowalla_aes"),
    ("index.nodes_visited_per_query", "count", "lower", "QueryResult.nodes_visited", "query_ms_p50", "gowalla_mixed", "-"),
    ("privacy.noise_plan_ms_per_pub", "ms", "lower", "replay", "publish_ms_p50", "nasa_sync", "gowalla_aes"),
    ("crypto.encrypt_batch_us_per_rec", "us", "lower", "wrap", "ingest_rps", "gowalla_aes", "nasa_sync"),
    ("crypto.encrypt_single_us_per_call", "us", "lower", "wrap", "publish_ms_p50", "gowalla_aes", "gowalla_tcp"),
    ("crypto.encrypt_single_calls_per_pub", "count", "lower", "wrap", "publish_ms_p50", "nasa_sync", "-"),
    ("crypto.decrypt_us_per_result", "us", "lower", "wrap", "query_ms_p50", "gowalla_aes", "gowalla_mixed"),
    ("crypto.ciphertext_bytes_per_rec", "bytes", "lower", "count", "peak_rss_mb", "all", "-"),
    ("core.system.pump_us_per_rec", "us", "lower", "wrap (driver self)", "ingest_rps", "nasa_sync", "gowalla_aes"),
    ("core.dispatcher.on_raw_us_per_rec", "us", "lower", "wrap", "ingest_rps", "nasa_sync", "gowalla_aes"),
    ("core.dispatcher.due_dummies_us_per_rec", "us", "lower", "wrap", "ingest_rps", "nasa_sync", "gowalla_aes"),
    ("core.dispatcher.start_publication_ms_per_pub", "ms", "lower", "wrap (self)", "publish_ms_p50", "nasa_sync", "gowalla_aes"),
    ("core.dispatcher.batches_per_pub", "count", "lower", "count", "ingest_rps", "gowalla_tcp", "-"),
    ("core.dispatcher.dummies_per_pub", "count", "lower", "checking counters", "ingest_rps", "nasa_sync", "-"),
    ("core.computing_node.on_raw_batch_us_per_rec", "us", "lower", "wrap (self, crypto excluded)", "ingest_rps", "nasa_sync", "gowalla_aes"),
    ("core.computing_node.rejected_total", "count", "lower", ".rejected", "failed_frac", "all", "-"),
    ("core.checking.on_pair_batch_us_per_rec", "us", "lower", "wrap", "ingest_rps", "gowalla_mixed", "gowalla_aes"),
    ("core.checking.finalise_ms_per_pub", "ms", "lower", "wrap (on_publishing + on_cn_publishing self)", "publish_ms_p50", "nasa_sync", "gowalla_aes"),
    ("core.checking.removed_per_pub", "count", "lower", "checking counters", "-", "all", "-"),
    ("core.checking.randomer_residents", "count", "lower", "len(buffered_pairs()) at close", "query_ms_p50", "gowalla_mixed", "-"),
    ("core.merger.on_al_ms_per_pub", "ms", "lower", "wrap (self, crypto excluded)", "publish_ms_p50", "nasa_sync", "gowalla_aes"),
    ("core.merger.overflow_dropped_per_pub", "count", "lower", "drop audit", "failed_frac", "gowalla_durable", "-"),
    ("core.query_target.collector_scan_ms_per_query", "ms", "lower", "wrap (CollectorAwareQueryTarget.query self)", "query_ms_p50", "gowalla_mixed", "gowalla_tcp"),
    ("cloud.receive_pairs_us_per_pair", "us", "lower", "wrap", "ingest_rps", "gowalla_mixed", "gowalla_aes"),
    ("cloud.receive_publication_ms_per_pub", "ms", "lower", "wrap (Fig. 15 matching)", "publish_ms_p50", "nasa_sync", "gowalla_aes"),
    ("cloud.query_ms_per_query", "ms", "lower", "wrap (cloud.query)", "query_ms_p50", "gowalla_mixed", "gowalla_aes"),
    ("cloud.pairs_per_pub", "count", "lower", "receipt", "-", "all", "-"),
    ("cloud.stored_bytes_per_rec", "bytes", "lower", "store.total_bytes() / records", "peak_rss_mb", "all", "-"),
    ("client.post_process_ms_per_query", "ms", "lower", "wrap (range_query self)", "query_ms_p50", "gowalla_mixed", "gowalla_aes"),
    ("client.ciphertexts_per_query", "count", "lower", "ClientResult", "query_ms_p50", "gowalla_mixed", "-"),
    ("client.useful_frac", "ratio", "higher", "records kept / ciphertexts received", "query_ms_p50", "gowalla_mixed", "-"),
    ("client.recall_frac", "ratio", "higher", "records kept / exact plaintext matches", "failed_frac", "nasa_sync", "-"),
    ("client.query_ms_p99", "ms", "lower", "harness timer", "query_ms_p95", "gowalla_mixed", "-"),
    ("durability.journal.append_us_per_rec", "us", "lower", "wrap (append_raw_batch)", "ingest_rps", "gowalla_durable", "others (absent)"),
    ("durability.journal.bytes_per_raw_byte", "ratio", "lower", "journal.byte_size / line bytes", "ingest_rps", "gowalla_durable", "-"),
    ("durability.fsyncs_per_1k_rec", "count", "lower", "os.fsync wrap", "ingest_rps", "gowalla_durable", "-"),
    ("durability.fsync_ms_total", "ms", "lower", "os.fsync wrap", "ingest_rps", "gowalla_durable", "-"),
    ("durability.checkpoint.save_ms_p50", "ms", "lower", "wrap (checkpoint())", "ingest_rps", "gowalla_durable", "-"),
    ("durability.checkpoint.count_per_pub", "count", "lower", "wrap", "ingest_rps", "gowalla_durable", "-"),
    ("durability.checkpoint.bytes_p50", "bytes", "lower", "file size", "recovery_s", "gowalla_durable", "-"),
    ("durability.ledger.grant_ms_per_pub", "ms", "lower", "wrap (accountant.grant)", "publish_ms_p50", "gowalla_durable", "-"),
    ("durability.recovery_s", "s", "lower", "timer (the harness's recovery_s)", "recovery_s", "gowalla_durable", "others (absent)"),
    ("durability.recovery.replayed_raw", "count", "lower", "RecoveryReport", "recovery_s", "gowalla_durable", "-"),
    ("durability.recovery.replay_us_per_rec", "us", "lower", "traced recovery_s / replayed_raw", "recovery_s", "gowalla_durable", "-"),
    ("runtime.wire.encode_us_per_rec", "us", "lower", "replay (encode_message)", "ingest_rps", "gowalla_tcp", "all sync"),
    ("runtime.wire.decode_us_per_rec", "us", "lower", "replay (decode_message)", "ingest_rps", "gowalla_tcp", "all sync"),
    ("runtime.wire.bytes_per_rec", "bytes", "lower", "frame bytes / records", "ingest_rps", "gowalla_tcp", "-"),
    ("runtime.router.send_us_per_rec", "us", "lower", "wrap (router.send)", "ingest_rps", "gowalla_tcp", "-"),
    ("runtime.tcp.frames_per_pub", "count", "lower", "router.sent_to", "ingest_rps", "gowalla_tcp", "-"),
    ("runtime.tcp.retries_total", "count", "lower", "router.retries + .reconnects", "failed_frac", "gowalla_tcp", "-"),
    ("runtime.tcp.inbox_depth_at_close", "count", "lower", "checking pending in health_report()", "publish_ms_p50", "gowalla_tcp", "-"),
    ("runtime.tcp.drain_ms_per_pub", "ms", "lower", "last ingest return -> receipt", "publish_ms_p50", "gowalla_tcp", "sync"),
    ("runtime.tcp.driver_busy_frac", "ratio", "lower", "wrapped busy / wall, driver thread", "ingest_rps", "gowalla_tcp", "-"),
    ("runtime.tcp.cn_busy_frac", "ratio", "lower", "mean over computing-node threads", "ingest_rps", "gowalla_tcp", "-"),
    ("runtime.tcp.checking_busy_frac", "ratio", "lower", "checking thread", "ingest_rps", "gowalla_tcp", "-"),
    ("runtime.tcp.cloud_busy_frac", "ratio", "lower", "cloud thread", "ingest_rps", "gowalla_tcp", "-"),
    ("telemetry.observations_per_rec", "count", "lower", "histogram counts / records", "ingest_rps", "nasa_telemetry", "nasa_sync"),
    ("telemetry.spans_per_pub", "count", "lower", "flight-recorder spans recorded", "ingest_rps", "nasa_telemetry", "-"),
    ("telemetry.enabled_overhead_frac", "ratio", "lower", "1 - median ingest_rps / nasa_sync's (`run` only; 0 in one cell)", "ingest_rps", "nasa_telemetry", "-"),
    ("process.gc_frac", "ratio", "lower", "gc.callbacks pause time / wall", "ingest_rps", "nasa_sync", "gowalla_aes"),
    ("process.gc_gen2_collections", "count", "lower", "gc.callbacks", "query_ms_p95", "gowalla_mixed", "-"),
    ("process.host_slowdown", "ratio", "lower", "calibration kernel time / reference", "-", "all", "-"),
    ("ledger.attributed_frac", "ratio", "higher", "wrapped self time / traced wall", "-", "all sync", "-"),
    ("ledger.residual_us_per_rec", "us", "lower", "1e6 / ingest_rps(traced) - rows", "ingest_rps", "all", "-"),
    ("ledger.trace_overhead_frac", "ratio", "lower", "1 - traced rate / untraced rate", "-", "all", "-"),
)

LAYER_NAMES = tuple(row[0] for row in LAYERS)
