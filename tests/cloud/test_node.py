"""Cloud node protocol tests (both variants)."""

import pytest

from repro.cloud.node import CloudError, FresqueCloud, MatchingTableCloud
from repro.index.domain import AttributeDomain
from repro.index.query import RangeQuery
from repro.index.tree import IndexTree
from repro.records.record import EncryptedRecord


@pytest.fixture
def domain():
    return AttributeDomain(0, 100, 10)


def _record(fill: int, publication: int = 0) -> EncryptedRecord:
    return EncryptedRecord(
        leaf_offset=None, ciphertext=bytes([fill]) * 32, publication=publication
    )


def _tree(domain, counts):
    tree = IndexTree(domain, fanout=4)
    tree.set_leaf_counts(counts)
    return tree


def _sealed_overflow(domain):
    """Two-slot overflow arrays as the merger ships them: per leaf, a
    tuple of ciphertexts (distinct per leaf here)."""
    return {
        offset: (bytes([offset]) * 32, bytes([128 + offset]) * 32)
        for offset in range(domain.num_leaves)
    }


class TestFresqueCloud:
    def test_publication_lifecycle(self, domain):
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        for i in range(10):
            cloud.receive_pair(0, i % 10, _record(i))
        receipt = cloud.receive_publication(
            0, _tree(domain, [1] * 10), _sealed_overflow(domain)
        )
        assert receipt.records_matched == 10
        assert len(cloud.engine.published) == 1

    def test_double_announce_rejected(self, domain):
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        with pytest.raises(CloudError):
            cloud.announce_publication(0)

    def test_pair_for_unknown_publication_rejected(self, domain):
        cloud = FresqueCloud(domain)
        with pytest.raises(CloudError):
            cloud.receive_pair(5, 0, _record(1))

    def test_publish_unknown_publication_rejected(self, domain):
        cloud = FresqueCloud(domain)
        with pytest.raises(CloudError):
            cloud.receive_publication(3, _tree(domain, [0] * 10), {})

    def test_query_over_published(self, domain):
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        cloud.receive_pair(0, 2, _record(1))
        cloud.receive_pair(0, 7, _record(2))
        cloud.receive_publication(0, _tree(domain, [0, 0, 1, 0, 0, 0, 0, 1, 0, 0]), {})
        result = cloud.query(RangeQuery(20, 29))
        assert len(result.indexed) == 1
        assert result.indexed[0].ciphertext == _record(1).ciphertext

    def test_query_includes_overflow_of_touched_leaves(self, domain):
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        cloud.receive_pair(0, 2, _record(1))
        cloud.receive_publication(
            0, _tree(domain, [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
            _sealed_overflow(domain),
        )
        result = cloud.query(RangeQuery(20, 29))
        # Leaf 2's sealed array, the ciphertexts as they were published.
        assert result.overflow == _sealed_overflow(domain)[2]

    def test_query_covers_unindexed_inflight_data(self, domain):
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        cloud.receive_pair(0, 3, _record(9))
        result = cloud.query(RangeQuery(30, 39))
        assert len(result.unindexed) == 1
        assert result.indexed == ()

    def test_unindexed_moves_to_indexed_after_publish(self, domain):
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        cloud.receive_pair(0, 3, _record(9))
        cloud.receive_publication(
            0, _tree(domain, [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]), {}
        )
        result = cloud.query(RangeQuery(30, 39))
        assert len(result.indexed) == 1
        assert result.unindexed == ()


class TestMatchingTableCloud:
    def test_lifecycle_with_table(self, domain):
        cloud = MatchingTableCloud(domain)
        cloud.announce_publication(0)
        table = {}
        for i in range(10):
            cloud.receive_tagged(0, 1000 + i, _record(i))
            table[1000 + i] = i % 10
        receipt = cloud.receive_publication(
            0, _tree(domain, [1] * 10), {}, table
        )
        assert receipt.records_matched == 10
        assert receipt.stats.bytes_read == 10 * 32

    def test_query_after_matching(self, domain):
        cloud = MatchingTableCloud(domain)
        cloud.announce_publication(0)
        cloud.receive_tagged(0, 42, _record(5))
        cloud.receive_publication(
            0, _tree(domain, [0, 1, 0, 0, 0, 0, 0, 0, 0, 0]), {}, {42: 1}
        )
        result = cloud.query(RangeQuery(10, 19))
        assert len(result.indexed) == 1

    def test_unindexed_invisible_to_queries(self, domain):
        # Tags are random: the PINED-RQ++ cloud cannot filter unpublished
        # records by range.
        cloud = MatchingTableCloud(domain)
        cloud.announce_publication(0)
        cloud.receive_tagged(0, 42, _record(5))
        result = cloud.query(RangeQuery(0, 100))
        assert result.unindexed == ()
        assert result.indexed == ()


class TestExactlyOncePublication:
    """Redelivery after a collector crash is deduped by publication
    number — at-least-once replay becomes exactly-once publication."""

    def _publish(self, cloud, domain, publication=0, pairs=10):
        cloud.announce_publication(publication)
        for i in range(pairs):
            cloud.receive_pair(publication, i % 10, _record(i, publication))
        return cloud.receive_publication(
            publication, _tree(domain, [1] * 10), _sealed_overflow(domain)
        )

    def test_reannounce_of_published_is_counted_noop(self, domain):
        cloud = FresqueCloud(domain)
        self._publish(cloud, domain)
        cloud.announce_publication(0)  # replay artefact, no CloudError
        assert cloud.duplicate_publications == 1
        assert len(cloud.engine.published) == 1

    def test_redelivered_pairs_dropped_and_counted(self, domain):
        cloud = FresqueCloud(domain)
        self._publish(cloud, domain)
        assert cloud.receive_pair(0, 3, _record(3)) == 0
        assert cloud.duplicate_pairs == 1
        assert cloud.store.record_count(0) == 10

    def test_redelivered_publication_returns_stored_receipt(self, domain):
        cloud = FresqueCloud(domain)
        receipt = self._publish(cloud, domain)
        again = cloud.receive_publication(
            0, _tree(domain, [1] * 10), _sealed_overflow(domain)
        )
        assert again is receipt
        assert cloud.duplicate_publications == 1
        assert len(cloud.engine.published) == 1

    def test_is_published_and_receipt_for(self, domain):
        cloud = FresqueCloud(domain)
        assert not cloud.is_published(0)
        assert cloud.receipt_for(0) is None
        receipt = self._publish(cloud, domain)
        assert cloud.is_published(0)
        assert cloud.receipt_for(0) is receipt


class TestCrashReconciliation:
    def test_reset_discards_inflight_publication(self, domain):
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        cloud.receive_pair(0, 3, _record(1))
        assert cloud.reset_publication(0)
        # The replay re-announces and re-streams from scratch.
        cloud.announce_publication(0)
        assert cloud.pair_count(0) == 0
        assert cloud.engine.in_flight_pairs() == []

    def test_reset_of_published_refused(self, domain):
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        for i in range(3):
            cloud.receive_pair(0, i, _record(i))
        cloud.receive_publication(
            0, _tree(domain, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]),
            _sealed_overflow(domain),
        )
        assert not cloud.reset_publication(0)
        assert len(cloud.engine.published) == 1

    def test_truncate_trims_store_metadata_and_engine(self, domain):
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        for i in range(8):
            cloud.receive_pair(0, i % 10, _record(i))
        dropped = cloud.truncate_publication(0, 5)
        assert dropped == 3
        assert cloud.pair_count(0) == 5
        assert cloud.store.record_count(0) == 5
        assert len(cloud.engine.in_flight_pairs()) == 5
        # The stream resumes exactly where the checkpoint left it.
        cloud.receive_pair(0, 5, _record(5))
        receipt = cloud.receive_publication(
            0, _tree(domain, [1] * 10), _sealed_overflow(domain)
        )
        assert receipt.records_matched == 6

    def test_matching_table_cloud_reset(self, domain):
        cloud = MatchingTableCloud(domain)
        cloud.announce_publication(0)
        cloud.receive_tagged(0, 42, _record(5))
        assert cloud.reset_publication(0)
        cloud.announce_publication(0)
        cloud.receive_tagged(0, 43, _record(6))
        receipt = cloud.receive_publication(
            0, _tree(domain, [0, 1] + [0] * 8), {}, {43: 1}
        )
        assert receipt.records_matched == 1
