"""Cross-system integration tests.

These tie the whole repository together: the three systems publish the same
workload and must agree on semantics; the cloud must never see plaintext;
the flu use-case runs over a budget horizon.
"""

import random

import pytest

from repro.client.query_client import QueryClient
from repro.cloud.node import FresqueCloud, MatchingTableCloud
from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import AesCbcCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.pinedrq.collector import PinedRqCollector
from repro.pinedrqpp.collector import PinedRqPPCollector
from repro.privacy.accountant import PublicationAccountant
from repro.records.schema import flu_survey_schema
from repro.records.serialize import parse_raw_line, render_raw_line


@pytest.fixture
def generator():
    return FluSurveyGenerator(seed=88)


@pytest.fixture
def schema():
    return flu_survey_schema()


class TestThreeSystemsAgree:
    def test_same_query_semantics(self, generator, schema, fast_cipher):
        """All three systems answer a range query with a subset of truth
        and comparable recall (loss only from noise pruning)."""
        records = list(generator.records(900))
        expected = {
            r.values for r in records if 370 <= r.indexed_value(schema) <= 400
        }

        # FRESQUE.
        config = FresqueConfig(
            schema=schema, domain=flu_domain(), num_computing_nodes=2
        )
        fresque = FresqueSystem(config, fast_cipher, seed=1)
        fresque.start()
        fresque.run_publication(
            [render_raw_line(r, schema) for r in records]
        )
        fresque_got = {
            r.values for r in fresque.query(370, 400).records
        }

        # PINED-RQ++.
        pp_cloud = MatchingTableCloud(flu_domain())
        pp = PinedRqPPCollector(
            schema, flu_domain(), fast_cipher, rng=random.Random(2)
        )
        pp.start_publication(pp_cloud)
        for record in records:
            pp.ingest_record(record, pp_cloud)
        pp.publish(pp_cloud)
        pp_got = {
            r.values
            for r in QueryClient(schema, fast_cipher, pp_cloud)
            .range_query(370, 400)
            .records
        }

        # PINED-RQ (batch).
        batch_cloud = FresqueCloud(flu_domain())
        batch = PinedRqCollector(
            schema, flu_domain(), fast_cipher, rng=random.Random(3)
        )
        for record in records:
            batch.ingest(record)
        batch.publish(batch_cloud)
        batch_got = {
            r.values
            for r in QueryClient(schema, fast_cipher, batch_cloud)
            .range_query(370, 400)
            .records
        }

        for got in (fresque_got, pp_got, batch_got):
            assert got <= expected
            assert len(got) >= 0.7 * len(expected)


class TestRealAesEndToEnd:
    def test_fresque_with_real_aes(self, generator, schema):
        """The full pipeline with the pure-Python AES-CBC cipher."""
        keys = KeyStore(b"integration-test-master-key-32b!")
        cipher = AesCbcCipher(keys)
        config = FresqueConfig(
            schema=schema, domain=flu_domain(), num_computing_nodes=2
        )
        system = FresqueSystem(config, cipher, seed=5)
        system.start()
        lines = list(generator.raw_lines(120))
        system.run_publication(lines)
        result = system.query(340, 420)
        truth = {parse_raw_line(line, schema).values for line in lines}
        assert {r.values for r in result.records} <= truth
        assert len(result.records) >= 0.8 * len(truth)


class TestCloudNeverSeesPlaintext:
    def test_no_attribute_bytes_in_store(self, schema, fast_cipher):
        """Honest-but-curious check: the cloud's stored bytes contain no
        recognisable plaintext attribute."""
        config = FresqueConfig(
            schema=schema, domain=flu_domain(), num_computing_nodes=2
        )
        system = FresqueSystem(config, fast_cipher, seed=6)
        system.start()
        marker = "veryuniqueparticipantname"
        lines = [
            render_raw_line(
                parse_raw_line(f"{marker}\t1\t375\tcough", schema), schema
            )
        ] + list(FluSurveyGenerator(seed=9).raw_lines(100))
        system.run_publication(lines)
        blob = b"".join(
            ciphertext for _, ciphertext in system.cloud.store.scan(0)
        )
        assert marker.encode() not in blob

    def test_only_leaf_offsets_in_clear(self, schema, fast_cipher):
        config = FresqueConfig(
            schema=schema, domain=flu_domain(), num_computing_nodes=2
        )
        system = FresqueSystem(config, fast_cipher, seed=7)
        system.start()
        system.run_publication(list(FluSurveyGenerator(seed=10).raw_lines(50)))
        for dataset in system.cloud.engine.published:
            for offset in dataset.pointers.by_leaf:
                assert 0 <= offset < flu_domain().num_leaves


class TestFluUseCaseOverHorizon:
    def test_weekly_publications_with_budget(self, schema, fast_cipher):
        """Section 8: 52-week horizon, equal ε shares, one publication per
        week — here 4 weeks for test speed."""
        accountant = PublicationAccountant(total_epsilon=2.0, horizon=4)
        domain = flu_domain()
        published = []
        for week in range(4):
            grant = accountant.grant()
            config = FresqueConfig(
                schema=schema,
                domain=domain,
                num_computing_nodes=2,
                epsilon=grant.epsilon,
            )
            system = FresqueSystem(config, fast_cipher, seed=100 + week)
            system.start()
            generator = FluSurveyGenerator(seed=week, week=week)
            system.run_publication(list(generator.raw_lines(150)))
            published.append(system)
        assert accountant.remaining_epsilon == pytest.approx(0.0, abs=1e-9)
        for system in published:
            assert len(system.cloud.engine.published) == 1
