"""Figure 15 — matching time at the cloud vs publication size.

Paper: parallel PINED-RQ++'s matching grows linearly with the publication
(~78 s NASA / ~76 s Gowalla at 5M records) because every record is read
back from disk; FRESQUE stays at tens of milliseconds (~54/43 ms maximum)
thanks to the in-memory metadata cache.

The analytic series reproduces the figure; the real matching code paths
are additionally benchmarked head-to-head on a scaled-down publication.
"""

import pytest

from benchmarks.common import DATASETS, emit, format_series
from repro.cloud.matching import match_with_metadata, match_with_table
from repro.cloud.metadata import MetadataCache
from repro.cloud.storage import EncryptedStore
from repro.simulation.analytic import (
    fresque_matching_time,
    parallel_pp_matching_time,
)

PUBLICATION_SIZES = (1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000)


def _series():
    return {
        name: {
            size: (
                fresque_matching_time(costs, size),
                parallel_pp_matching_time(costs, size),
            )
            for size in PUBLICATION_SIZES
        }
        for name, costs in DATASETS
    }


def test_fig15_series(benchmark):
    """Regenerate both matching-time curves."""
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    for name, _ in DATASETS:
        rows = [
            [
                f"{size // 1_000_000}M",
                f"{series[name][size][0] * 1000:.1f} ms",
                f"{series[name][size][1]:.1f} s",
            ]
            for size in PUBLICATION_SIZES
        ]
        emit(
            f"fig15_{name}",
            format_series(
                f"Figure 15 ({name}): cloud matching time",
                ["publication", "FRESQUE", "parallel PINED-RQ++"],
                rows,
            ),
        )
    nasa = series["nasa"]
    assert nasa[5_000_000][0] < 0.06  # paper: max ~54 ms
    assert 70 < nasa[5_000_000][1] < 86  # paper: ~78 s
    # Linearity of the PINED-RQ++ curve.
    assert nasa[5_000_000][1] == pytest.approx(5 * nasa[1_000_000][1], rel=0.01)
    # Two-orders-of-magnitude gap.
    assert nasa[5_000_000][1] / nasa[5_000_000][0] > 100


def _build_publication(records: int):
    store = EncryptedStore()
    store.append_columns(
        0,
        [index.to_bytes(4, "little") * 16 for index in range(records)],
        [None] * records,
    )
    leaves = [index % 626 for index in range(records)]
    # Arrival order makes record ``index`` ordinal ``index`` of file 0.
    tag_ordinals = {index: index for index in range(records)}
    return store, leaves, tag_ordinals, dict(enumerate(leaves))


def test_fig15_real_metadata_matching(benchmark):
    """Benchmark FRESQUE's real matching over 20k records."""
    _, leaves, _, _ = _build_publication(20_000)

    def run():
        # Matching destroys the cache; rebuild a fresh one per round.
        fresh = MetadataCache(0)
        fresh.extend(leaves)
        return match_with_metadata(fresh)

    pointers, stats = benchmark(run)
    assert stats.records == 20_000
    assert stats.bytes_read == 0


def test_fig15_real_table_matching(benchmark):
    """Benchmark PINED-RQ++'s real read-back matching over 20k records."""
    store, _, tag_ordinals, table = _build_publication(20_000)
    pointers, stats = benchmark(
        match_with_table, store, 0, tag_ordinals, table
    )
    assert stats.records == 20_000
    assert stats.bytes_read == 20_000 * 64
