"""Authenticated (encrypt-then-MAC) cipher tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.authenticated import AuthenticatedCipher, AuthenticationError
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher, record_nonce
from repro.crypto.keys import KeyStore
from tests.conftest import cloud_state_fingerprint


@pytest.fixture(params=[AesCbcCipher, SimulatedCipher])
def cipher(request, keystore):
    return AuthenticatedCipher(request.param(keystore), keystore)


class TestAuthenticatedCipher:
    def test_roundtrip(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"payload")) == b"payload"

    def test_length_prediction(self, cipher):
        for size in (0, 1, 16, 100):
            assert len(cipher.encrypt(b"x" * size)) == cipher.ciphertext_length(
                size
            )

    def test_any_bit_flip_detected(self, cipher):
        ciphertext = bytearray(cipher.encrypt(b"sensitive record"))
        for position in range(0, len(ciphertext), 7):
            tampered = bytearray(ciphertext)
            tampered[position] ^= 0x01
            with pytest.raises(AuthenticationError):
                cipher.decrypt(bytes(tampered))

    def test_truncation_detected(self, cipher):
        ciphertext = cipher.encrypt(b"sensitive record")
        with pytest.raises(AuthenticationError):
            cipher.decrypt(ciphertext[:-1])
        with pytest.raises(AuthenticationError):
            cipher.decrypt(b"")

    def test_tag_swap_between_records_detected(self, cipher):
        a = cipher.encrypt(b"record a")
        b = cipher.encrypt(b"record b")
        franken = a[:-32] + b[-32:]
        with pytest.raises(AuthenticationError):
            cipher.decrypt(franken)

    def test_mac_key_independent_of_encryption_key(self, keystore):
        assert keystore.derive("fresque/record-authentication") != (
            keystore.record_key()
        )

    def test_wrong_mac_key_rejects(self, keystore):
        inner = SimulatedCipher(keystore)
        ours = AuthenticatedCipher(inner, keystore)
        theirs = AuthenticatedCipher(
            inner, KeyStore(b"some-other-master-key-32-bytes!!")
        )
        ciphertext = ours.encrypt(b"record")
        with pytest.raises(AuthenticationError):
            theirs.decrypt(ciphertext)


class TestSeededIvs:
    """``config.deterministic_ivs`` pipelines call the seeded methods;
    the wrapper takes its IVs from the cipher it wraps."""

    @pytest.fixture(params=[AesCbcCipher, SimulatedCipher])
    def inner(self, request, keystore):
        return request.param(keystore)

    def test_seeded_is_the_inner_seeded_ciphertext_plus_its_tag(
        self, inner, keystore
    ):
        cipher = AuthenticatedCipher(inner, keystore)
        nonce = record_nonce(41)
        body = inner.encrypt_seeded(b"payload", nonce)
        ciphertext = cipher.encrypt_seeded(b"payload", nonce)
        assert cipher.derive_iv(nonce) == inner.derive_iv(nonce)
        assert ciphertext[:-32] == body
        assert ciphertext == cipher.encrypt_seeded(b"payload", nonce)
        assert ciphertext != cipher.encrypt_seeded(b"payload", record_nonce(42))
        assert cipher.decrypt(ciphertext) == b"payload"

    def test_seeded_batch_equals_mapped_seeded(self, inner, keystore):
        cipher = AuthenticatedCipher(inner, keystore)
        messages = [b"m" * length for length in range(0, 70, 3)]
        nonces = [record_nonce(ordinal) for ordinal in range(len(messages))]
        batch = cipher.encrypt_batch_seeded(messages, nonces)
        assert batch == [
            cipher.encrypt_seeded(message, nonce)
            for message, nonce in zip(messages, nonces)
        ]
        assert cipher.decrypt_batch(batch) == messages
        with pytest.raises(ValueError):
            cipher.encrypt_batch_seeded(messages, nonces[:-1])

    def test_unseeded_batch_is_tagged_inner_batch(self, keystore):
        """One inner ``encrypt_batch`` call: the inner IV sequence is the
        one mapping ``encrypt`` draws."""
        batching = AuthenticatedCipher(SimulatedCipher(keystore), keystore)
        mapping = AuthenticatedCipher(SimulatedCipher(keystore), keystore)
        messages = [b"record-%d" % index for index in range(9)]
        assert batching.encrypt_batch(messages) == [
            mapping.encrypt(message) for message in messages
        ]


@settings(max_examples=40)
@given(payload=st.binary(max_size=300))
def test_authenticated_roundtrip_property(payload):
    """Authenticate-then-decrypt is the identity on untampered data."""
    keys = KeyStore(b"property-authenticated-key-32by!")
    cipher = AuthenticatedCipher(SimulatedCipher(keys), keys)
    assert cipher.decrypt(cipher.encrypt(payload)) == payload


def test_end_to_end_with_fresque(flu_config, keystore):
    """The authenticated cipher drops into the full pipeline."""
    from repro.core.system import FresqueSystem
    from repro.datasets.flu import FluSurveyGenerator

    cipher = AuthenticatedCipher(SimulatedCipher(keystore), keystore)
    system = FresqueSystem(flu_config, cipher, seed=3)
    system.start()
    generator = FluSurveyGenerator(seed=61)
    system.run_publication(list(generator.raw_lines(300)))
    result = system.query(340, 420)
    assert len(result.records) > 250


def test_end_to_end_with_deterministic_ivs(flu_config, keystore):
    """Authenticated real AES in a seeded-IV pipeline: two deployments
    publish identical ciphertexts, and the client reads them back."""
    from dataclasses import replace

    from repro.core.system import FresqueSystem
    from repro.datasets.flu import FluSurveyGenerator

    config = replace(flu_config, deterministic_ivs=True)
    lines = list(FluSurveyGenerator(seed=61).raw_lines(200))
    fingerprints = []
    for _ in range(2):
        cipher = AuthenticatedCipher(AesCbcCipher(keystore), keystore)
        system = FresqueSystem(config, cipher, seed=3)
        system.start()
        system.run_publication(lines)
        fingerprints.append(cloud_state_fingerprint(system))
        assert len(system.query(340, 420).records) > 150
    assert fingerprints[0] == fingerprints[1]
