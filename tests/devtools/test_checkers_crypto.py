"""Positive/negative fixtures for the FRQ-X2xx crypto checkers."""

from tests.devtools.conftest import codes_of, lint_source

CRYPTO_PATH = "src/repro/crypto/fixture.py"


class TestX202HardcodedKey:
    def test_positive_key_assignment(self):
        diagnostics = lint_source(
            """
            master_key = b"super-secret-master-key!"
            """
        )
        assert codes_of(diagnostics) == ["FRQ-X202"]

    def test_positive_secret_keyword_argument(self):
        diagnostics = lint_source(
            """
            def connect(client):
                return client.login(secret="hunter2hunter2")
            """
        )
        assert codes_of(diagnostics) == ["FRQ-X202"]

    def test_negative_key_size_and_derived_key(self):
        diagnostics = lint_source(
            """
            key_size = 32

            def derive(keystore):
                record_key = keystore.derive("records")
                return record_key
            """
        )
        assert codes_of(diagnostics) == []


class TestX203DigestEquality:
    def test_positive_digest_call_compare(self):
        diagnostics = lint_source(
            """
            def verify(mac_of, data, expected):
                return mac_of(data).digest() == expected
            """
        )
        assert codes_of(diagnostics) == ["FRQ-X203"]

    def test_positive_name_assigned_from_digest(self):
        diagnostics = lint_source(
            """
            def verify(hasher, expected):
                computed = hasher.hexdigest()
                return computed == expected
            """
        )
        assert codes_of(diagnostics) == ["FRQ-X203"]

    def test_positive_tag_name_in_crypto_package(self):
        diagnostics = lint_source(
            """
            def verify(tag, expected_tag):
                return tag == expected_tag
            """,
            display_path=CRYPTO_PATH,
        )
        assert codes_of(diagnostics) == ["FRQ-X203"]

    def test_negative_compare_digest(self):
        diagnostics = lint_source(
            """
            import hmac

            def verify(hasher, expected):
                computed = hasher.digest()
                return hmac.compare_digest(computed, expected)
            """
        )
        assert codes_of(diagnostics) == []

    def test_negative_tag_names_outside_crypto(self):
        diagnostics = lint_source(
            """
            def same_tag(tag, other):
                return tag == other  # xml tags, not MACs
            """
        )
        assert codes_of(diagnostics) == []


class TestX204WeakRandomInCrypto:
    def test_positive_import_random_in_crypto(self):
        diagnostics = lint_source(
            """
            import random

            def iv():
                return random.randbytes(16)
            """,
            display_path=CRYPTO_PATH,
        )
        assert codes_of(diagnostics) == ["FRQ-X204"]

    def test_positive_from_random_import(self):
        diagnostics = lint_source(
            """
            from random import Random
            """,
            display_path=CRYPTO_PATH,
        )
        assert codes_of(diagnostics) == ["FRQ-X204"]

    def test_negative_random_outside_crypto(self):
        diagnostics = lint_source(
            """
            import random

            def pick(rng: random.Random, options):
                return rng.choice(options)
            """,
            display_path="src/repro/core/fixture.py",
        )
        assert codes_of(diagnostics) == []

    def test_negative_secrets_in_crypto(self):
        diagnostics = lint_source(
            """
            import secrets

            def iv():
                return secrets.token_bytes(16)
            """,
            display_path=CRYPTO_PATH,
        )
        assert codes_of(diagnostics) == []
