"""Table 1 — prior schemes versus the target requirements.

Reproduces the qualitative matrix and backs two of its cells with
measurements on the real baseline implementations:

* ArxRange's garbling-bound ingest (paper cites ~450 writes/s; FRESQUE is
  "at least two orders of magnitude higher");
* OPE's order leakage (the 'no formal security' cell);
* PINED-RQ's small storage overhead.
"""

import random

from benchmarks.common import emit, simulate_throughput
from repro.baselines.arxrange import ArxRangeIndex
from repro.baselines.ope import OpeStore
from repro.baselines.requirements import render_table
from repro.cloud.node import FresqueCloud
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.pinedrq.collector import PinedRqCollector
from repro.records.schema import flu_survey_schema
from repro.records.serialize import serialize_record
from repro.simulation.costs import NASA_COSTS


def _cipher():
    return SimulatedCipher(KeyStore(b"table1-benchmark-master-key-32b!"))


def test_table1_matrix_and_arxrange_gap(benchmark):
    """Render Table 1 and verify the ArxRange throughput gap."""
    rng = random.Random(1)
    index = ArxRangeIndex(_cipher())

    def insert_block():
        for _ in range(500):
            index.insert(rng.random() * 1000, b"payload")

    benchmark.pedantic(insert_block, rounds=1, iterations=1)
    for _ in range(5):
        insert_block()
    arx_rate = index.modelled_insert_throughput()
    fresque_rate = simulate_throughput("fresque", NASA_COSTS, 12, duration=1.0)
    lines = [render_table(), ""]
    lines.append(f"ArxRange modelled ingest: {arx_rate:,.0f} writes/s")
    lines.append(f"FRESQUE (NASA, 12 nodes): {fresque_rate:,.0f} records/s")
    lines.append(f"gap: {fresque_rate / arx_rate:,.0f}x")
    emit("table1", "\n".join(lines))
    # "at least two orders of magnitude higher"
    assert fresque_rate / arx_rate > 100


def test_table1_ope_leaks_order(benchmark):
    """OPE's 'no formal security' cell: the server sees the total order."""
    rng = random.Random(2)
    store = OpeStore(_cipher())

    def insert_all():
        for _ in range(300):
            store.insert(rng.random() * 100, b"x")

    benchmark.pedantic(insert_all, rounds=1, iterations=1)
    codes = store.observed_codes()
    assert codes == sorted(codes)


def test_table1_hve_prohibitive_cost(benchmark):
    """HVE's 'no low latency' cell: modelled pairing costs cap ingest at
    single-digit records/s and make even one query take seconds."""
    from repro.baselines.hve import HveStore

    rng = random.Random(3)
    store = HveStore(_cipher())

    def insert_block():
        for _ in range(100):
            store.insert(rng.randrange(100_000), b"payload")

    benchmark.pedantic(insert_block, rounds=1, iterations=1)
    store.range_query(0, 50_000)
    emit(
        "table1_hve",
        f"HVE modelled ingest: {store.modelled_insert_throughput():.1f} "
        f"records/s; one full-scan query: "
        f"{store.modelled_query_seconds():.1f} s of pairings",
    )
    assert store.modelled_insert_throughput() < 100
    assert store.modelled_query_seconds() > 1.0


def test_table1_pbtree_storage_overhead(benchmark):
    """PBtree's 'no small storage' cell: per-node Bloom filters dominate."""
    from repro.baselines.pbtree import PBtree

    rng = random.Random(4)
    records = [(rng.randrange(100_000), b"payload-%d" % i) for i in range(400)]

    def build():
        return PBtree(records, _cipher(), key=b"table1-pbtree-key")

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    data_bytes = sum(len(p) + 32 for _, p in records)
    expansion = tree.storage_bytes() / data_bytes
    emit(
        "table1_pbtree",
        f"PBtree index storage: {tree.storage_bytes():,} bytes over "
        f"{data_bytes:,} data bytes -> {expansion:.0f}x expansion",
    )
    assert expansion > 20  # prohibitive, as Table 1 says


def test_table1_pined_rq_storage_overhead(benchmark):
    """PINED-RQ's 'small storage' cell: published bytes stay within a
    small factor of the encrypted dataset."""
    cipher = _cipher()
    schema = flu_survey_schema()
    domain = flu_domain()
    generator = FluSurveyGenerator(seed=3)
    records = list(generator.records(2000))

    def publish():
        cloud = FresqueCloud(domain)
        collector = PinedRqCollector(
            schema, domain, cipher, rng=random.Random(4)
        )
        for record in records:
            collector.ingest(record)
        report = collector.publish(cloud)
        return cloud, report

    cloud, report = benchmark.pedantic(publish, rounds=1, iterations=1)
    dataset_bytes = sum(
        len(cipher.encrypt(serialize_record(r, schema))) for r in records
    )
    published_bytes = cloud.store.total_bytes + sum(
        sum(map(len, column))
        for column in cloud.engine.published[0].overflow.values()
    )
    expansion = published_bytes / dataset_bytes
    emit(
        "table1_storage",
        f"PINED-RQ storage expansion over the encrypted dataset: "
        f"{expansion:.2f}x (records={len(records)}, "
        f"overflow slots={report.overflow_capacity})",
    )
    assert expansion < 2.5  # small, noise-bound-proportional overhead
