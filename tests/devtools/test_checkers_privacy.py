"""Positive/negative fixtures for the FRQ-P3xx privacy-budget checkers."""

from tests.devtools.conftest import codes_of, lint_source

PRIVACY_PATH = "src/repro/privacy/fixture.py"


class TestP301SamplingOutsidePrivacy:
    def test_positive_tainted_mechanism_sample(self):
        diagnostics = lint_source(
            """
            from repro.privacy.laplace import LaplaceMechanism

            def noisy(count, epsilon):
                mech = LaplaceMechanism(epsilon)
                return count + mech.sample_integer()
            """
        )
        assert codes_of(diagnostics) == ["FRQ-P301"]

    def test_positive_chained_sample(self):
        diagnostics = lint_source(
            """
            def noisy(count, epsilon, laplace_cls):
                return count + LaplaceMechanism(epsilon).sample()
            """
        )
        assert codes_of(diagnostics) == ["FRQ-P301"]

    def test_positive_numpy_laplace(self):
        diagnostics = lint_source(
            """
            def noisy(rng, count, scale):
                return count + rng.laplace(0.0, scale)
            """
        )
        assert codes_of(diagnostics) == ["FRQ-P301"]

    def test_negative_sampling_inside_privacy(self):
        diagnostics = lint_source(
            """
            def noisy(mechanism, count):
                return count + mechanism.sample_integer()
            """,
            display_path=PRIVACY_PATH,
        )
        assert codes_of(diagnostics) == []

    def test_negative_unrelated_sample_method(self):
        diagnostics = lint_source(
            """
            def pick(reservoir, k):
                return reservoir.sample(k)  # reservoir sampling, not noise
            """
        )
        assert codes_of(diagnostics) == []


class TestP302EpsilonLiterals:
    def test_positive_epsilon_keyword_literal(self):
        diagnostics = lint_source(
            """
            def build(make_config, schema):
                return make_config(schema, epsilon=0.5)
            """
        )
        assert codes_of(diagnostics) == ["FRQ-P302"]

    def test_positive_epsilon_assignment(self):
        diagnostics = lint_source(
            """
            def run(pipeline):
                query_epsilon = 2.0
                return pipeline(query_epsilon)
            """
        )
        assert codes_of(diagnostics) == ["FRQ-P302"]

    def test_negative_epsilon_threaded_from_config(self):
        diagnostics = lint_source(
            """
            def build(make_config, schema, config):
                return make_config(schema, epsilon=config.epsilon)
            """
        )
        assert codes_of(diagnostics) == []

    def test_negative_literal_in_config_module(self):
        diagnostics = lint_source(
            """
            class FresqueConfig:
                epsilon: float = 1.0
            """,
            display_path="src/repro/core/config.py",
        )
        assert codes_of(diagnostics) == []

    def test_negative_literal_inside_privacy(self):
        diagnostics = lint_source(
            """
            DEFAULT_EPSILON = 1.0

            def split(epsilon=1.0, levels=1):
                return epsilon / levels
            """,
            display_path=PRIVACY_PATH,
        )
        assert codes_of(diagnostics) == []

