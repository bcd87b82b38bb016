"""Synthetic workload generator tests."""

import hashlib

import pytest

from repro.datasets.base import DatasetGenerator
from repro.datasets.flu import FluSurveyGenerator
from repro.datasets.gowalla import GowallaGenerator
from repro.datasets.nasa import NasaLogGenerator
from repro.records.serialize import parse_raw_line

GENERATORS = [NasaLogGenerator, GowallaGenerator, FluSurveyGenerator]


@pytest.mark.parametrize("generator_cls", GENERATORS)
class TestGeneratorContract:
    def test_records_match_schema(self, generator_cls):
        generator = generator_cls(seed=1)
        for record in generator.records(50):
            validated = record.validate(generator.schema)
            assert validated.values == record.values

    def test_indexed_values_in_domain(self, generator_cls):
        generator = generator_cls(seed=2)
        domain = generator.domain
        for record in generator.records(200):
            value = record.indexed_value(generator.schema)
            assert domain.dmin <= value <= domain.dmax
            domain.leaf_offset(value)  # must not raise

    def test_raw_lines_parse_back(self, generator_cls):
        generator = generator_cls(seed=3)
        for line in generator.raw_lines(50):
            record = parse_raw_line(line, generator.schema)
            assert len(record.values) == generator.schema.arity

    def test_deterministic_under_seed(self, generator_cls):
        a = [r.values for r in generator_cls(seed=9).records(20)]
        b = [r.values for r in generator_cls(seed=9).records(20)]
        assert a == b

    def test_different_seeds_differ(self, generator_cls):
        a = [r.values for r in generator_cls(seed=1).records(20)]
        b = [r.values for r in generator_cls(seed=2).records(20)]
        assert a != b


#: First line, 500th line and the sha256 of the first 500 lines at seed 7,
#: as generated before the schema and domain were built once per generator.
PINNED_STREAMS = {
    NasaLogGenerator: (
        "host42445.net19.example.com\t806227209\t"
        "GET /shuttle/missions/sts-71/mission-sts-71.html HTTP/1.0\t200\t16264",
        "host93164.net07.example.com\t805601951\t"
        "GET /shuttle/countdown/ HTTP/1.0\t304\t17614",
        "81dd80d01468f1d3206586ea5177d997de5737600466672644f0ba04ff188e09",
    ),
    GowallaGenerator: (
        "84890\t178594\t197405",
        "66466\t882439\t1188811",
        "00b2c8f00f8e581a40419787446bf5079229f7249a997c5c9571270b48192f9b",
    ),
    FluSurveyGenerator: (
        "p339563\t0\t367\tfever;myalgia",
        "p603268\t0\t368\tsore-throat",
        "4749de5b388d278c6c0a811ebb90b1d76a4709bbd3b65592e361efde5aa72b8e",
    ),
}


@pytest.mark.parametrize("generator_cls", GENERATORS)
class TestSchemaBuiltOnce:
    def test_schema_and_domain_are_built_once_per_generator(
        self, generator_cls
    ):
        generator = generator_cls(seed=1)
        assert generator.schema is generator.schema
        assert generator.domain is generator.domain
        assert generator.schema == generator_cls.schema_factory()
        assert generator.domain == generator_cls.domain_factory()

    def test_generated_lines_are_unchanged(self, generator_cls):
        first, last, digest = PINNED_STREAMS[generator_cls]
        lines = list(generator_cls(seed=7).raw_lines(500))
        assert (lines[0], lines[-1]) == (first, last)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


class TestRecordSizes:
    def test_nasa_lines_about_4x_gowalla(self):
        """The cost model's record-size ratio must hold in the data."""
        nasa = NasaLogGenerator(seed=4).average_line_bytes()
        gowalla = GowallaGenerator(seed=4).average_line_bytes()
        assert 3.0 < nasa / gowalla < 5.5

    def test_nasa_line_size_near_model(self):
        from repro.simulation.costs import NASA_COSTS

        measured = NasaLogGenerator(seed=5).average_line_bytes()
        assert measured == pytest.approx(NASA_COSTS.line_bytes, rel=0.25)

    def test_gowalla_line_size_near_model(self):
        from repro.simulation.costs import GOWALLA_COSTS

        measured = GowallaGenerator(seed=5).average_line_bytes()
        assert measured == pytest.approx(GOWALLA_COSTS.line_bytes, rel=0.25)


class TestDistributionShapes:
    def test_nasa_reply_bytes_heavy_tailed(self):
        generator = NasaLogGenerator(seed=6)
        sizes = [r.values[4] for r in generator.records(4000)]
        sizes.sort()
        median = sizes[len(sizes) // 2]
        p99 = sizes[int(0.99 * len(sizes))]
        assert p99 > 10 * median  # long tail

    def test_gowalla_checkins_diurnal(self):
        generator = GowallaGenerator(seed=7)
        by_hour_of_day = [0] * 24
        for record in generator.records(8000):
            by_hour_of_day[(record.values[1] // 3600) % 24] += 1
        assert max(by_hour_of_day) > 1.8 * min(by_hour_of_day)

    def test_flu_fever_rate(self):
        generator = FluSurveyGenerator(seed=8, fever_rate=0.1)
        febrile = sum(
            1 for r in generator.records(5000) if r.values[2] >= 380
        )
        assert 0.05 < febrile / 5000 < 0.2

    def test_flu_fever_rate_validation(self):
        with pytest.raises(ValueError):
            FluSurveyGenerator(seed=1, fever_rate=1.5)


class TestPaperCounts:
    def test_paper_record_counts_recorded(self):
        assert NasaLogGenerator.PAPER_RECORD_COUNT == 1_569_898
        assert GowallaGenerator.PAPER_RECORD_COUNT == 6_442_892

    def test_base_class_is_abstract(self):
        with pytest.raises(TypeError):
            DatasetGenerator(seed=1)
