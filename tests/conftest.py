"""Shared fixtures for the FRESQUE reproduction test suite."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.benchfab.fingerprint import cloud_state_fingerprint  # noqa: F401
from repro.core.config import FresqueConfig
from repro.crypto.cipher import AesCbcCipher, SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.index.domain import AttributeDomain
from repro.records.schema import flu_survey_schema

# cloud_state_fingerprint — the canonical byte-level serialization of a
# deployment's cloud state — lives in repro.benchfab.fingerprint so the
# benchmarks and the equivalence harnesses share one implementation;
# tests keep importing it from here.


def query_fingerprint(system, low: float, high: float) -> tuple:
    """Canonical digest of an end-to-end range query's answer."""
    result = system.query(low, high)
    values = sorted(repr(record.values) for record in result.records)
    return len(values), hashlib.sha256("\n".join(values).encode()).hexdigest()


@pytest.fixture
def keystore() -> KeyStore:
    """Deterministic key store shared by collector and client."""
    return KeyStore(b"fresque-test-master-key-32bytes!", key_size=16)


@pytest.fixture
def aes_cipher(keystore) -> AesCbcCipher:
    """Real AES-CBC record cipher."""
    return AesCbcCipher(keystore)


@pytest.fixture
def fast_cipher(keystore) -> SimulatedCipher:
    """Fast length-preserving cipher for bulk tests."""
    return SimulatedCipher(keystore)


@pytest.fixture
def small_domain() -> AttributeDomain:
    """A small 10-leaf domain for index unit tests."""
    return AttributeDomain(dmin=0, dmax=100, bin_interval=10)


@pytest.fixture
def flu_config() -> FresqueConfig:
    """A FRESQUE deployment config over the flu-survey domain."""
    return FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=3,
        epsilon=1.0,
        alpha=2.0,
    )


@pytest.fixture
def flu_generator() -> FluSurveyGenerator:
    """Seeded flu-survey workload."""
    return FluSurveyGenerator(seed=71)


@pytest.fixture
def rng() -> random.Random:
    """Seeded RNG for deterministic tests."""
    return random.Random(20210323)  # EDBT 2021 started March 23
