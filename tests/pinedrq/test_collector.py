"""PINED-RQ batch publisher tests."""

import random

import pytest

from repro.client.query_client import QueryClient
from repro.cloud.node import FresqueCloud
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.pinedrq.collector import PinedRqCollector
from repro.records.schema import flu_survey_schema


@pytest.fixture
def generator():
    return FluSurveyGenerator(seed=17)


@pytest.fixture
def collector(fast_cipher):
    return PinedRqCollector(
        flu_survey_schema(),
        flu_domain(),
        fast_cipher,
        epsilon=1.0,
        rng=random.Random(4),
    )


class TestBatchPublication:
    def test_report_accounting(self, collector, generator):
        cloud = FresqueCloud(flu_domain())
        records = list(generator.records(500))
        for record in records:
            collector.ingest(record)
        assert collector.buffered == 500
        report = collector.publish(cloud)
        assert collector.buffered == 0
        assert report.real_records == 500
        # Published pairs = real - removed + dummies.
        published = cloud.engine.published[0].pointers.total
        assert published == 500 - report.records_removed + report.dummies_added

    def test_index_counts_match_noisy_truth(self, collector, generator):
        cloud = FresqueCloud(flu_domain())
        records = list(generator.records(400))
        for record in records:
            collector.ingest(record)
        collector.publish(cloud)
        dataset = cloud.engine.published[0]
        schema = flu_survey_schema()
        domain = flu_domain()
        # The root's noisy count must be within plausible noise of truth:
        # |noise at root| is one Laplace draw, overwhelmingly < 100.
        assert abs(dataset.tree.root.count - 400) < 100

    def test_overflow_arrays_sealed_fixed_size(self, collector, generator):
        cloud = FresqueCloud(flu_domain())
        for record in generator.records(300):
            collector.ingest(record)
        report = collector.publish(cloud)
        arrays = cloud.engine.published[0].overflow
        assert len(arrays) == flu_domain().num_leaves
        sizes = {len(column) for column in arrays.values()}
        assert len(sizes) == 1  # all identical (fixed size)
        assert report.overflow_capacity == sum(
            len(column) for column in arrays.values()
        )

    def test_publication_numbers_increment(self, collector, generator):
        cloud = FresqueCloud(flu_domain())
        for record in generator.records(50):
            collector.ingest(record)
        first = collector.publish(cloud)
        for record in generator.records(50):
            collector.ingest(record)
        second = collector.publish(cloud)
        assert (first.publication, second.publication) == (0, 1)

    def test_end_to_end_query(self, collector, generator, fast_cipher):
        cloud = FresqueCloud(flu_domain())
        schema = flu_survey_schema()
        records = list(generator.records(800))
        for record in records:
            collector.ingest(record)
        collector.publish(cloud)
        client = QueryClient(schema, fast_cipher, cloud)
        result = client.range_query(380, 420)
        expected = {
            r.values for r in records if 380 <= r.indexed_value(schema) <= 420
        }
        got = {r.values for r in result.records}
        assert got <= expected  # never hallucinates records
        # Recall loss only from pruned (negative-count) leaves; with
        # ε=1 over 80 leaves the loss is small.
        assert len(got) >= 0.7 * len(expected)
