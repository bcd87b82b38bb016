"""Paper-scale functional runs and adversarial-input fuzzing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import DecryptionError, SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.gowalla import GowallaGenerator
from repro.datasets.nasa import NasaLogGenerator
from repro.records.serialize import parse_raw_line
from repro.runtime.schedule import ScheduledFresque


class TestPaperDomainsFunctional:
    """The evaluation domains (3421- and 626-bin indexes) running the real
    pipeline end to end, scaled down in record count only."""

    def test_nasa_domain_full_pipeline(self, fast_cipher):
        generator = NasaLogGenerator(seed=3)
        config = FresqueConfig(
            schema=generator.schema,
            domain=generator.domain,
            num_computing_nodes=4,
            epsilon=1.0,
        )
        assert config.randomer_buffer_size == 2 * 3421 * 16
        system = FresqueSystem(config, fast_cipher, seed=23)
        system.start()
        lines = list(generator.raw_lines(4000))
        summary = system.run_publication(lines)
        assert summary.published_pairs == (
            4000 + summary.dummies - summary.removed
        )
        # Query the small-response band [0, 8 KB].
        result = system.query(0, 8 * 1024)
        schema = generator.schema
        truth = [
            parse_raw_line(line, schema) for line in lines
        ]
        expected = [
            r for r in truth if r.indexed_value(schema) <= 8 * 1024
        ]
        assert len(result.records) <= len(expected)
        assert len(result.records) >= 0.5 * len(expected)

    def test_gowalla_domain_scheduled(self, fast_cipher):
        generator = GowallaGenerator(seed=4)
        config = FresqueConfig(
            schema=generator.schema,
            domain=generator.domain,
            num_computing_nodes=4,
        )
        batches = [list(generator.raw_lines(1500)) for _ in range(3)]
        with ScheduledFresque(config, fast_cipher, seed=6) as runtime:
            # Closed back to back, settled once: ingestion overlaps the
            # earlier publications' publishing.
            for lines in batches:
                runtime.ingest_batch(lines)
                runtime.close_publication()
            runtime.settle(len(batches) - 1)
            assert len(runtime.cloud.engine.published) == 3
            result = runtime.make_client().range_query(0, 626 * 3600)
            # At ~7 records/leaf the Laplace noise (scale 4) prunes many
            # sparse leaves — the recall floor is correspondingly lower
            # than with the paper's dense millions-of-records workload.
            assert len(result.records) >= 0.6 * 4500


class TestAdversarialInputs:
    """A compromised source or cloud must not crash trusted components."""

    def test_client_rejects_tampered_ciphertexts(self, keystore):
        cipher = SimulatedCipher(keystore)
        good = cipher.encrypt(b"legitimate payload")
        tampered = good[:-1] + bytes([good[-1] ^ 0xFF])
        try:
            recovered = cipher.decrypt(tampered)
            assert recovered != b"legitimate payload"
        except DecryptionError:
            pass

    @settings(max_examples=60)
    @given(blob=st.binary(min_size=0, max_size=200))
    def test_decrypt_never_crashes_on_garbage(self, blob):
        cipher = SimulatedCipher(KeyStore(b"fuzz-test-master-key-32-bytes!!!"))
        try:
            cipher.decrypt(blob)
        except DecryptionError:
            pass  # the only acceptable failure mode

    @settings(max_examples=60)
    @given(line=st.text(max_size=120))
    def test_parser_never_crashes_on_garbage(self, line):
        from repro.records.record import RecordError
        from repro.records.schema import gowalla_schema

        try:
            parse_raw_line(line, gowalla_schema())
        except (RecordError, ValueError):
            pass

    # Each example runs a full publication (index merge + overflow-array
    # padding); hypothesis's 200 ms default deadline is sized for
    # micro-examples, so give the end-to-end pipeline explicit headroom
    # for slow CI runners (~110 ms/example on a dev machine).
    @settings(max_examples=30, deadline=1000)
    @given(
        lines=st.lists(st.text(max_size=60), min_size=0, max_size=20),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_system_survives_arbitrary_text_stream(self, lines, seed):
        """A whole publication of garbage must publish cleanly (all
        rejected) without breaking index consistency."""
        generator = GowallaGenerator(seed=1)
        config = FresqueConfig(
            schema=generator.schema,
            domain=generator.domain,
            num_computing_nodes=2,
        )
        cipher = SimulatedCipher(KeyStore(b"fuzz-test-master-key-32-bytes!!!"))
        system = FresqueSystem(config, cipher, seed=seed)
        system.start()
        good = list(generator.raw_lines(5))
        summary = system.run_publication(list(lines) + good)
        rejected = sum(node.rejected for node in system.computing_nodes)
        accepted = len(lines) + 5 - rejected
        assert summary.published_pairs == (
            accepted + summary.dummies - summary.removed
        )
