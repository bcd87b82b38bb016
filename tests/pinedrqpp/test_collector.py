"""PINED-RQ++ streaming collector tests."""

import random

import pytest

from repro.client.query_client import QueryClient
from repro.cloud.node import MatchingTableCloud
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.pinedrqpp.collector import PinedRqPPCollector
from repro.records.schema import flu_survey_schema
from repro.records.serialize import DUMMY_PAYLOAD_PREFIX, render_raw_line


@pytest.fixture
def generator():
    return FluSurveyGenerator(seed=23)


@pytest.fixture
def collector(fast_cipher):
    return PinedRqPPCollector(
        flu_survey_schema(),
        flu_domain(),
        fast_cipher,
        epsilon=1.0,
        rng=random.Random(14),
    )


def _run_publication(collector, cloud, generator, count):
    collector.start_publication(cloud)
    schema = flu_survey_schema()
    records = list(generator.records(count))
    for index, record in enumerate(records):
        if index % 5 == 0:
            dummy = collector.next_dummy()
            if dummy is not None:
                collector.ingest_record(dummy, cloud)
        collector.ingest_line(render_raw_line(record, schema), cloud)
    report = collector.publish(cloud)
    return records, report


class TestStreamingPublication:
    def test_report_consistency(self, collector, generator):
        cloud = MatchingTableCloud(flu_domain())
        records, report = _run_publication(collector, cloud, generator, 600)
        assert report.real_records == 600
        assert collector.pending_dummies == 0  # all dummies were sent
        assert report.matching_table_size == (
            600 - report.records_removed + report.dummies_sent
        )

    def test_published_records_match_table(self, collector, generator):
        cloud = MatchingTableCloud(flu_domain())
        _, report = _run_publication(collector, cloud, generator, 400)
        dataset = cloud.engine.published[0]
        assert dataset.pointers.total == report.matching_table_size

    def test_removed_records_land_in_overflow(
        self, collector, generator, fast_cipher
    ):
        cloud = MatchingTableCloud(flu_domain())
        _, report = _run_publication(collector, cloud, generator, 600)
        dataset = cloud.engine.published[0]
        # What reaches the cloud is ciphertext: decrypting the arrays and
        # counting the non-dummies recovers every removed record.
        plaintexts = fast_cipher.decrypt_batch(
            [ct for column in dataset.overflow.values() for ct in column]
        )
        real_in_overflow = sum(
            not plaintext.startswith(DUMMY_PAYLOAD_PREFIX)
            for plaintext in plaintexts
        )
        assert real_in_overflow == report.records_removed

    def test_requires_started_publication(self, collector, generator):
        cloud = MatchingTableCloud(flu_domain())
        with pytest.raises(RuntimeError):
            collector.ingest_record(next(generator.records(1)), cloud)
        with pytest.raises(RuntimeError):
            collector.publish(cloud)

    def test_end_to_end_query(self, collector, generator, fast_cipher):
        cloud = MatchingTableCloud(flu_domain())
        schema = flu_survey_schema()
        records, _ = _run_publication(collector, cloud, generator, 700)
        client = QueryClient(schema, fast_cipher, cloud)
        result = client.range_query(380, 420)
        expected = {
            r.values for r in records if 380 <= r.indexed_value(schema) <= 420
        }
        got = {r.values for r in result.records}
        assert got <= expected
        assert len(got) >= 0.7 * len(expected)

    def test_multiple_publications(self, collector, generator):
        cloud = MatchingTableCloud(flu_domain())
        _run_publication(collector, cloud, generator, 100)
        records, report = _run_publication(collector, cloud, generator, 100)
        assert report.publication == 1
        assert len(cloud.engine.published) == 2

    def test_streaming_index_equals_merged_truth(self, collector, generator):
        """The published (template-updated) index equals true counts plus
        the pre-drawn noise — PINED-RQ++'s core invariant."""
        cloud = MatchingTableCloud(flu_domain())
        collector.start_publication(cloud)
        schema = flu_survey_schema()
        plan = collector.plan
        domain = flu_domain()
        records = list(generator.records(300))
        for record in records:
            collector.ingest_record(record, cloud)
        collector.publish(cloud)
        counts = [0] * domain.num_leaves
        for record in records:
            counts[domain.leaf_offset(record.indexed_value(schema))] += 1
        dataset = cloud.engine.published[0]
        for offset, leaf in enumerate(dataset.tree.leaves):
            assert leaf.count == counts[offset] + plan.leaf_noise[offset]
