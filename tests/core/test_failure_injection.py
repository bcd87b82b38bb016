"""Failure-injection tests: malformed input must never break ingestion."""

import pytest

from repro.cloud.node import MatchingTableCloud
from repro.core.computing_node import ComputingNode
from repro.core.messages import RawBatch
from repro.core.system import FresqueSystem
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.pinedrqpp.collector import PinedRqPPCollector
from repro.records.schema import flu_survey_schema


BAD_LINES = [
    "",  # empty
    "only-one-field",
    "a\tb\tc\td\te\tf\tg",  # too many fields
    "p1\tnot-an-int\t375\tnone",  # bad week
    "p1\t1\tnot-a-temp\tnone",  # bad temperature
    "p1\t1\t9999\tnone",  # temperature outside the domain
    "p1\t1\t100\tnone",  # below domain min
    "p1\t1\t375\tnone\t200",  # flag neither real nor dummy
    "\ud800\t1\t375\tnone",  # not encodable as UTF-8
]


class TestComputingNodeResilience:
    @pytest.mark.parametrize("line", BAD_LINES)
    def test_bad_line_dropped_and_counted(self, flu_config, fast_cipher, line):
        node = ComputingNode(0, flu_config, fast_cipher)
        out = node.on_raw_batch(RawBatch(0, (line,)))
        assert out == []
        assert node.rejected == 1
        assert node.encrypted == 0

    def test_good_lines_still_flow_after_bad(self, flu_config, fast_cipher):
        node = ComputingNode(0, flu_config, fast_cipher)
        node.on_raw_batch(RawBatch(0, ("garbage",)))
        out = node.on_raw_batch(RawBatch(0, ("p1\t1\t375\tnone",)))
        assert len(out) == 1
        assert node.rejected == 1
        assert node.encrypted == 1


class TestSystemResilience:
    def test_publication_survives_malformed_lines(self, flu_config, fast_cipher):
        system = FresqueSystem(flu_config, fast_cipher, seed=66)
        system.start()
        generator = FluSurveyGenerator(seed=13)
        lines = list(generator.raw_lines(400))
        # Poison 10% of the stream.
        poisoned = []
        for index, line in enumerate(lines):
            poisoned.append(line)
            if index % 10 == 0:
                poisoned.append(BAD_LINES[index % len(BAD_LINES)])
        summary = system.run_publication(poisoned)
        rejected = sum(node.rejected for node in system.computing_nodes)
        assert rejected == 40
        # The good records all made it: pairs = good + dummies - removed.
        assert summary.published_pairs == (
            400 + summary.dummies - summary.removed
        )
        result = system.query(340, 420)
        assert len(result.records) > 0.9 * 400


class TestPinedRqPPResilience:
    def test_bad_lines_counted_not_fatal(self, fast_cipher):
        cloud = MatchingTableCloud(flu_domain())
        collector = PinedRqPPCollector(
            flu_survey_schema(), flu_domain(), fast_cipher
        )
        collector.start_publication(cloud)
        for line in BAD_LINES:
            collector.ingest_line(line, cloud)
        collector.ingest_line("p1\t1\t375\tnone", cloud)
        report = collector.publish(cloud)
        assert collector.rejected == len(BAD_LINES)
        assert report.real_records == 1
