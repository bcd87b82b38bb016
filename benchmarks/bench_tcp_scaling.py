"""Figure 9 on this code: TCP ingestion throughput at k = 1 and k = 2.

Runs the Gowalla check-in stream through :class:`TcpFresqueCluster`
with one and with two computing nodes — each a forked process, so the
nodes parse and encrypt beside the driver instead of under its
interpreter lock.  A cell is one fresh cluster ingesting
:data:`PUBLICATIONS` publications of :data:`RECORDS` records each
(ingest, close, wait for the cloud's receipt); its rate is records over
that wall time, its close the median close-to-receipt time.  Each row
is the median of :data:`REPETITIONS` cells, the order of ``k``
alternating between repetitions so drift on the host favours neither.
The driver is not pinned to a CPU (the ledger pins it), so the rows
read lower than ``gowalla_tcp``'s.

The table lands in ``benchmarks/out/tcp_scaling.txt``.  It stops at
k = 2 on purpose: with the driver, the checking node, the merger and the
cloud in one process beside ``k`` node processes, k > 2 on a 2-vCPU
host measures oversubscription, not the design.  The one gate is
correctness: with seeded IVs both ``k`` publish the same pairs.

Run with::

    python -m pytest benchmarks/bench_tcp_scaling.py -q -p no:cacheprovider
"""

from __future__ import annotations

import statistics
import time

from benchmarks.common import emit, format_series, thousands
from repro.benchfab.datasets import dataset
from repro.benchfab.runner import MASTER_KEY
from repro.core.config import FresqueConfig
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.runtime.tcp import TcpFresqueCluster

#: Computing nodes per cell: at most 2 children at once (see above).
NODES = (1, 2)
RECORDS = 20_000
PUBLICATIONS = 2
REPETITIONS = 5
#: Lines per ``ingest_batch`` call: the batch size.
CHUNK = 64


def _config(nodes: int) -> FresqueConfig:
    source = dataset("gowalla")
    return FresqueConfig(
        schema=source.schema(),
        domain=source.domain(),
        num_computing_nodes=nodes,
        epsilon=1.0,
        alpha=2.0,
        batch_size=64,
        deterministic_ivs=True,
    )


def _cell(publications: list[list[str]], nodes: int):
    """Records/s, the median close (s) and the matched pairs of one
    cell, publication by publication."""
    cipher = SimulatedCipher(KeyStore(MASTER_KEY, key_size=16))
    with TcpFresqueCluster(_config(nodes), cipher, seed=9) as cluster:
        closes, matched = [], []
        started = time.perf_counter()
        for lines in publications:
            # The dummies paced between chunks, as ``run_publication``
            # paces them, so the close times only the close.
            for start in range(0, len(lines), CHUNK):
                cluster.pump_dummies(start / len(lines))
                cluster.ingest_batch(lines[start : start + CHUNK])
            closing = time.perf_counter()
            receipt = cluster.finish_publication()
            closes.append(time.perf_counter() - closing)
            matched.append(receipt.records_matched)
        elapsed = time.perf_counter() - started
    records = sum(map(len, publications))
    return records / elapsed, statistics.median(closes), matched


def _sweep(publications: list[list[str]]):
    """Per ``k``: the median rate, the median close and every cell's
    matched pairs."""
    samples = {nodes: [] for nodes in NODES}
    for rep in range(REPETITIONS):
        for nodes in NODES if rep % 2 == 0 else reversed(NODES):
            samples[nodes].append(_cell(publications, nodes))
    return {
        nodes: (
            statistics.median(rate for rate, _, _ in cells),
            statistics.median(close for _, close, _ in cells),
            [matched for _, _, matched in cells],
        )
        for nodes, cells in samples.items()
    }


def test_tcp_scaling_series(benchmark):
    """Regenerate the k = 1 / k = 2 rows; both must publish the same
    pairs."""
    publications = dataset("gowalla").lines(11, RECORDS, PUBLICATIONS)
    results = benchmark.pedantic(
        _sweep, args=(publications,), rounds=1, iterations=1
    )
    base = results[NODES[0]][0]
    rows = [
        [
            nodes,
            thousands(rate),
            f"{close * 1e3:.0f} ms",
            f"{rate / base:.2f}x",
        ]
        for nodes, (rate, close, _) in results.items()
    ]
    emit(
        "tcp_scaling",
        format_series(
            f"TCP cluster, Gowalla {PUBLICATIONS} x {RECORDS} records, "
            f"computing nodes in forked processes (records/s end to end, "
            f"median of {REPETITIONS})",
            ["k", "records/s", "close p50", "speedup"],
            rows,
        ),
    )
    matched = {
        tuple(cell) for _, _, cells in results.values() for cell in cells
    }
    assert len(matched) == 1, f"k changed the published pairs: {matched}"
