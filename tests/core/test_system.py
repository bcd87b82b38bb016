"""End-to-end FRESQUE system tests (synchronous driver)."""

import pytest

from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.records.schema import flu_survey_schema
from repro.records.serialize import parse_raw_line


@pytest.fixture
def system(flu_config, fast_cipher):
    system = FresqueSystem(flu_config, fast_cipher, seed=101)
    system.start()
    return system


@pytest.fixture
def lines(flu_generator):
    return list(flu_generator.raw_lines(1200))


class TestPublicationLifecycle:
    def test_summary_accounting(self, system, lines):
        summary = system.run_publication(lines)
        assert summary.publication == 0
        assert summary.real_records == len(lines)
        # Pairs at the cloud = real - removed + dummies.
        assert summary.published_pairs == (
            summary.real_records - summary.removed + summary.dummies
        )

    def test_double_start_rejected(self, system):
        with pytest.raises(RuntimeError):
            system.start()

    def test_ingest_requires_start(self, flu_config, fast_cipher):
        system = FresqueSystem(flu_config, fast_cipher, seed=1)
        with pytest.raises(RuntimeError):
            system.ingest("x")

    def test_consecutive_publications(self, system, flu_generator):
        first = system.run_publication(list(flu_generator.raw_lines(300)))
        second = system.run_publication(list(flu_generator.raw_lines(300)))
        assert (first.publication, second.publication) == (0, 1)
        assert len(system.cloud.engine.published) == 2


class TestPublicationWithoutDummies:
    def test_a_publication_that_draws_no_dummies_closes(
        self, fast_cipher, flu_generator
    ):
        """At a budget this large every leaf's noise rounds to 0: the
        dispatcher schedules no dummy, and the publication still closes
        with every real record at the cloud."""
        config = FresqueConfig(
            schema=flu_survey_schema(),
            domain=flu_domain(),
            num_computing_nodes=3,
            epsilon=1e9,
            alpha=2.0,
        )
        system = FresqueSystem(config, fast_cipher, seed=5)
        system.start()
        lines = list(flu_generator.raw_lines(200))
        summary = system.run_publication(lines)
        assert system.dispatcher.dummies_generated == 0
        assert (summary.dummies, summary.removed) == (0, 0)
        assert summary.published_pairs == len(lines)


class TestIndexConsistency:
    def test_published_index_equals_truth_plus_noise(self, system, lines):
        system.run_publication(lines)
        schema = flu_survey_schema()
        domain = flu_domain()
        counts = [0] * domain.num_leaves
        for line in lines:
            record = parse_raw_line(line, schema)
            counts[domain.leaf_offset(record.indexed_value(schema))] += 1
        dataset = system.cloud.engine.published[0]
        # Reconstruct the noise from the merged tree: count - truth.
        noise = [
            leaf.count - counts[offset]
            for offset, leaf in enumerate(dataset.tree.leaves)
        ]
        # Each leaf's noise must be an integer (merge did not corrupt).
        assert all(float(n).is_integer() for n in noise)
        # Root consistency: root count = total + root noise.
        root_children_sum = sum(
            child.count for child in dataset.tree.root.children
        )
        assert abs(dataset.tree.root.count - root_children_sum) < 200

    def test_leaf_pointers_match_noisy_counts(self, system, lines):
        """For non-negative leaves, pointer count == noisy count — the
        inconsistency PINED-RQ repairs with dummies/removals (Section 4.1)."""
        system.run_publication(lines)
        dataset = system.cloud.engine.published[0]
        mismatches = []
        for offset, leaf in enumerate(dataset.tree.leaves):
            pointers = len(dataset.pointers.ordinals(offset))
            if leaf.count >= 0 and pointers != leaf.count:
                mismatches.append((offset, leaf.count, pointers))
        assert mismatches == []


class TestEndToEndQueries:
    def test_query_returns_exact_in_range_records(self, system, lines):
        system.run_publication(lines)
        schema = flu_survey_schema()
        result = system.query(380, 420)
        truth = [parse_raw_line(line, schema) for line in lines]
        expected = {
            r.values for r in truth if 380 <= r.indexed_value(schema) <= 420
        }
        got = {r.values for r in result.records}
        assert got <= expected
        assert len(got) >= 0.6 * len(expected)

    def test_query_covers_unpublished_publication(self, system, lines):
        system.run_publication(lines)
        # Publication 1 is open; feed a few records without closing it.
        extra = FluSurveyGenerator(seed=5)
        schema = flu_survey_schema()
        fever_lines = []
        for record in extra.records(200):
            if record.indexed_value(schema) >= 390:
                from repro.records.serialize import render_raw_line

                fever_lines.append(render_raw_line(record, schema))
        for line in fever_lines:
            system.ingest(line)
        result = system.query(390, 420)
        got_values = [r.values for r in result.records]
        for line in fever_lines:
            assert parse_raw_line(line, schema).values in got_values

    def test_no_false_records_ever(self, system, lines):
        system.run_publication(lines)
        schema = flu_survey_schema()
        truth = {parse_raw_line(line, schema).values for line in lines}
        result = system.query(340, 420)
        for record in result.records:
            assert record.values in truth


class TestRemovedRecordsRecoverable:
    def test_removed_records_served_from_overflow(self, flu_config, fast_cipher):
        """Records consumed by negative noise are not lost: they come back
        through the overflow arrays of touched leaves."""
        system = FresqueSystem(flu_config, fast_cipher, seed=202)
        system.start()
        generator = FluSurveyGenerator(seed=31)
        lines = list(generator.raw_lines(1500))
        summary = system.run_publication(lines)
        assert summary.removed > 0, "draw produced no removals; reseed test"
        schema = flu_survey_schema()
        truth = [parse_raw_line(line, schema) for line in lines]
        result = system.query(340, 420)
        got = {r.values for r in result.records}
        missing = {r.values for r in truth} - got
        # Missing records can only be those in *pruned* leaves; removed
        # records of non-pruned leaves are recovered via overflow arrays.
        from repro.index.query import RangeQuery, traverse

        dataset = system.cloud.engine.published[0]
        pruned = set(
            traverse(dataset.tree, RangeQuery(340, 420)).pruned_leaves
        )
        domain = flu_domain()
        for values in missing:
            record_offset = domain.leaf_offset(values[2])
            assert record_offset in pruned
