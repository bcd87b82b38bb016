"""Direct tests of the collector-aware query facade (Section 5.3(c)).

Records matching a query are returned from wherever they currently live:
the cloud (published and unindexed), the randomer buffer, and the merger's
removed-record buffers.
"""

import random
from collections import Counter

import pytest

from repro.cloud.node import FresqueCloud
from repro.core.checking import CheckingNode
from repro.core.merger import Merger
from repro.core.messages import (
    NewPublication,
    RemovedBatch,
    TemplateMsg,
)
from repro.core.system import CollectorAwareQueryTarget, FresqueSystem
from repro.datasets.flu import FluSurveyGenerator
from repro.index.perturb import draw_noise_plan
from repro.index.query import RangeQuery
from repro.index.tree import IndexTree
from repro.records.record import EncryptedRecord
from repro.records.serialize import parse_raw_line, render_raw_line
from tests.columns import pair_batch


@pytest.fixture
def system(flu_config, fast_cipher):
    system = FresqueSystem(flu_config, fast_cipher, seed=121)
    system.start()
    return system


class TestCollectorResidentRecords:
    def test_randomer_residents_served(self, system, flu_config):
        """Records absorbed by the (never-full) randomer must still be
        query-visible before the publication closes."""
        generator = FluSurveyGenerator(seed=131)
        lines = list(generator.raw_lines(50))
        for line in lines:
            system.ingest(line)
        # Nothing published yet; the pairs sit in the randomer.
        residents = system.checking.buffered_pairs()
        assert len(residents) >= 50
        result = system.query(340, 420)
        schema = flu_config.schema
        truth = {parse_raw_line(line, schema).values for line in lines}
        got = {record.values for record in result.records}
        assert truth <= got  # every ingested record is visible

    def test_merger_removed_records_served(self, system, flu_config):
        """Records diverted to the merger as removed stay query-visible
        during the interval."""
        generator = FluSurveyGenerator(seed=132)
        # Push enough records through a tiny window that some get removed;
        # easiest: run most of a publication, then inspect mid-flight.
        lines = list(generator.raw_lines(2000))
        for line in lines:
            system.ingest(line)
        pending = system.merger.pending_removed()
        if not pending:
            pytest.skip("no removals surfaced mid-interval in this draw")
        schema = flu_config.schema
        result = system.query(340, 420)
        got = {record.values for record in result.records}
        truth = {parse_raw_line(line, schema).values for line in lines}
        assert truth <= got

    def test_facade_composes_query_result(self, system):
        target = CollectorAwareQueryTarget(
            system.cloud, system.checking, system.merger
        )
        result = target.query(RangeQuery(340, 420))
        assert hasattr(result, "indexed")
        assert hasattr(result, "unindexed")

    def test_out_of_range_residents_not_served(self, system, flu_config):
        generator = FluSurveyGenerator(seed=133)
        lines = list(generator.raw_lines(100))
        for line in lines:
            system.ingest(line)
        schema = flu_config.schema
        narrow = system.query(340, 341)
        for record in narrow.records:
            assert 340 <= record.indexed_value(schema) <= 341

    def test_no_double_serving_after_publication(self, system, flu_config):
        """Once published, records come from the cloud only — never twice."""
        generator = FluSurveyGenerator(seed=134)
        lines = list(generator.raw_lines(300))
        system.run_publication(lines)
        result = system.query(340, 420)
        values = [record.values for record in result.records]
        assert len(values) == len(set(values))


def _under(triples, leaves):
    """The ciphertexts of ``(publication, leaf, record)`` triples whose
    leaf is in ``leaves``."""
    return [record.ciphertext for _, leaf, record in triples if leaf in leaves]


class _StubChecking:
    """Checker stand-in with a fixed randomer-resident set."""

    def __init__(self, pairs):
        self._pairs = pairs

    def buffered_in(self, leaves):
        return _under(self._pairs, leaves)


class _StubMerger:
    """Merger stand-in with a fixed removed-record set."""

    def __init__(self, pairs):
        self._pairs = pairs

    def removed_in(self, leaves):
        return _under(self._pairs, leaves)


class TestMidPublicationUnion:
    """Deterministic Section 5.3(c) coverage: a mid-publication query
    returns collector-resident records from *both* the randomer buffer
    and the merger's removed set (the end-to-end tests above can only
    hit the merger path when the draw happens to remove something)."""

    @staticmethod
    def _pair(domain, publication, value, marker):
        leaf_offset = domain.leaf_offset(value)
        return (
            publication,
            leaf_offset,
            EncryptedRecord(leaf_offset, marker, publication=publication),
        )

    def test_union_of_randomer_and_merger_residents(self, flu_config):
        domain = flu_config.domain
        cloud = FresqueCloud(domain)
        buffered = [
            self._pair(domain, 0, 350, b"randomer-in-range"),
            self._pair(domain, 0, 418, b"randomer-out-of-range"),
        ]
        removed = [
            self._pair(domain, 0, 351, b"merger-in-range"),
            self._pair(domain, 0, 419, b"merger-out-of-range"),
        ]
        target = CollectorAwareQueryTarget(
            cloud, _StubChecking(buffered), _StubMerger(removed)
        )
        result = target.query(RangeQuery(345, 360))
        # Exactly the in-range residents: randomer first, then merger.
        assert result.unindexed == (b"randomer-in-range", b"merger-in-range")
        # Nothing published, so indexed/overflow stay empty.
        assert result.indexed == ()
        assert result.overflow == ()

    def test_union_stacks_on_cloud_unindexed(self, flu_config):
        """Collector residents extend (not replace) the cloud's own
        in-flight unindexed records."""
        domain = flu_config.domain
        cloud = FresqueCloud(domain)
        cloud.announce_publication(0)
        at_cloud_offset = domain.leaf_offset(352)
        cloud.receive_pairs(0, (at_cloud_offset,), (b"at-cloud",))
        target = CollectorAwareQueryTarget(
            cloud,
            _StubChecking([self._pair(domain, 0, 353, b"at-randomer")]),
            _StubMerger([self._pair(domain, 0, 354, b"at-merger")]),
        )
        result = target.query(RangeQuery(345, 360))
        assert result.unindexed == (b"at-cloud", b"at-randomer", b"at-merger")


class TestLeafKeyedLookupEqualsScan:
    """The target finds collector residents by leaf; the scan it replaced
    — a filter over ``buffered_pairs() + pending_removed()`` — stays here
    as the reference."""

    @staticmethod
    def _reference_extras(domain, checking, merger, query):
        overlapping = set(domain.leaves_overlapping(query.low, query.high))
        return [
            encrypted
            for _, leaf_offset, encrypted in (
                checking.buffered_pairs() + merger.pending_removed()
            )
            if leaf_offset in overlapping
        ]

    def test_two_open_publications_with_removed_records(
        self, flu_config, fast_cipher
    ):
        domain = flu_config.domain
        checking = CheckingNode(flu_config, rng=random.Random(141))
        merger = Merger(flu_config, fast_cipher, rng=random.Random(142))
        tree = IndexTree(domain, fanout=flu_config.fanout)
        draws = random.Random(143)
        serial = iter(range(10_000))

        def record(publication, leaf):
            marker = f"{publication}-{leaf}-{next(serial)}".encode()
            return EncryptedRecord(leaf, marker, publication=publication)

        # Publishing is asynchronous (Section 5.3): the checking node and
        # the merger hold state for both open publications at once.
        for publication in (0, 1):
            plan = draw_noise_plan(tree, flu_config.epsilon, rng=draws)
            checking.on_new_publication(NewPublication(publication, plan))
            merger.on_template(TemplateMsg(publication, plan))
            leaves = [draws.randrange(domain.num_leaves) for _ in range(120)]
            checking.on_pair_batch(
                pair_batch(
                    publication,
                    [
                        (
                            leaf,
                            record(publication, leaf).ciphertext,
                            draws.random() < 0.2,
                        )
                        for leaf in leaves
                    ],
                )
            )
            removed = leaves[:15]
            merger.on_removed(
                RemovedBatch(
                    publication,
                    tuple(removed),
                    tuple(
                        record(publication, leaf).ciphertext
                        for leaf in removed
                    ),
                )
            )
        assert {p for p, _, _ in checking.buffered_pairs()} == {0, 1}
        assert {p for p, _, _ in merger.pending_removed()} == {0, 1}

        cloud = FresqueCloud(domain)
        target = CollectorAwareQueryTarget(cloud, checking, merger)
        for low, high in ((345, 360), (340, 420), (350, 350), (415, 420)):
            query = RangeQuery(low, high)
            extras = target.query(query).unindexed
            reference = self._reference_extras(domain, checking, merger, query)
            assert reference
            assert Counter(extras) == Counter(
                r.ciphertext for r in reference
            )
