"""Batched ingestion throughput on the Figure 9 workload.

Measures the real pipeline (no DES) ingesting the Gowalla check-in
stream under the fast record cipher, sweeping ``batch_size`` over 1, 8,
64 and 256:

* the in-memory driver isolates the per-record dispatch/parse/encrypt
  overhead that batching amortises (one RawBatch, one ``encrypt_batch``,
  one bulk check per batch);
* the durable driver adds the write-ahead journal under a strict fsync
  cadence — ``sync_every=16`` journal appends — where batching is group
  commit: a 64-record chunk is one ``rawb`` frame, so the same
  durability discipline costs one fsync per ~1k records instead of one
  per 16.

A cell times ~0.1 s of wall, so one sample is noise: each cell's rate is
the median of :data:`REPETITIONS` runs, the sweep's order alternating
between repetitions so drift on the host does not favour one end.  The
table lands in ``benchmarks/out/batching.txt``.

Run with::

    python -m pytest benchmarks/bench_batching.py -q -p no:cacheprovider
"""

from __future__ import annotations

import statistics
import time

from benchmarks.common import emit, format_series, thousands
from repro.benchfab.datasets import dataset
from repro.benchfab.runner import MASTER_KEY
from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.durability.system import DurableFresqueSystem

#: Swept batch sizes; 1 is the per-record baseline, 64 the gated point.
SIZES = (1, 8, 64, 256)
MODES = ("memory", "durable")
RECORDS = 12_000
REPETITIONS = 5

#: Gates: batch 64 over batch 1, and the least share of the previous
#: batch size's rate a larger batch size may fall to (no cliff).
MIN_SPEEDUP = {"durable": 2.0, "memory": 2.31}
NO_CLIFF = {"durable": 0.90, "memory": 0.85}


def _config(batch_size: int) -> FresqueConfig:
    source = dataset("gowalla")
    return FresqueConfig(
        schema=source.schema(),
        domain=source.domain(),
        num_computing_nodes=4,
        epsilon=1.0,
        alpha=2.0,
        batch_size=batch_size,
    )


def _rate(lines: list[str], mode: str, batch_size: int, root) -> float:
    """Ingest-only records/s of one cell."""
    cipher = SimulatedCipher(KeyStore(MASTER_KEY, key_size=16))
    if mode == "durable":
        system = DurableFresqueSystem(
            _config(batch_size),
            cipher,
            root,
            seed=9,
            checkpoint_every=0,
            sync_every=16,
        )
    else:
        system = FresqueSystem(_config(batch_size), cipher, seed=9)
    system.start()
    started = time.perf_counter()
    system.ingest_batch(lines)
    system.flush_ingest()
    elapsed = time.perf_counter() - started
    if mode == "durable":
        system.close()
    return len(lines) / elapsed


def _sweep(lines: list[str], root) -> dict[tuple[str, int], float]:
    """Median records/s per (mode, batch size) cell."""
    cells = [(mode, size) for mode in MODES for size in SIZES]
    samples: dict[tuple[str, int], list[float]] = {cell: [] for cell in cells}
    for rep in range(REPETITIONS):
        for mode, size in cells if rep % 2 == 0 else reversed(cells):
            samples[mode, size].append(
                _rate(lines, mode, size, root / f"{mode}-{size}-{rep}")
            )
    return {cell: statistics.median(rates) for cell, rates in samples.items()}


def test_batching_series(benchmark, tmp_path):
    """Regenerate both series and enforce the speedup and no-cliff gates."""
    lines = dataset("gowalla").lines(71, RECORDS)[0]
    rates = benchmark.pedantic(
        _sweep, args=(lines, tmp_path), rounds=1, iterations=1
    )
    rows = [
        [size]
        + [thousands(rates[mode, size]) for mode in MODES]
        + [f"{rates[mode, size] / rates[mode, 1]:.2f}x" for mode in MODES]
        for size in SIZES
    ]
    emit(
        "batching",
        format_series(
            f"Batched ingestion, Gowalla x{RECORDS}, 4 computing nodes "
            f"(records/s, median of {REPETITIONS})",
            ["batch", "memory", "durable", "memory-speedup", "durable-speedup"],
            rows,
        ),
    )
    failures = []
    for mode in MODES:
        speedup = rates[mode, 64] / rates[mode, 1]
        if speedup < MIN_SPEEDUP[mode]:
            failures.append(
                f"{mode}: batch 64 / batch 1 = {speedup:.2f}x "
                f"< {MIN_SPEEDUP[mode]}x"
            )
        for smaller, larger in zip(SIZES, SIZES[1:]):
            share = rates[mode, larger] / rates[mode, smaller]
            if share < NO_CLIFF[mode]:
                failures.append(
                    f"{mode}: batch {larger} reads {share:.2f} of batch "
                    f"{smaller} < {NO_CLIFF[mode]}"
                )
    assert not failures, "; ".join(failures)
