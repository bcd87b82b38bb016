"""Flow control must be byte-invisible to the published state.

Adaptive batching only moves *flush boundaries*, and credit-based
backpressure only *defers* already-sequenced batches — neither may
change a single published byte.  These tests extend the batch ≡
per-record harness to both mechanisms: the synchronous driver runs the
same seeded arrival stream with credits on vs off and with the adaptive
controller on vs pinned, and the cloud-state fingerprints (file
digests, receipts, collector counters, a query digest) must match
exactly.
"""

from __future__ import annotations

import pytest

from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.telemetry.context import Telemetry
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.records.schema import flu_survey_schema

from tests.conftest import cloud_state_fingerprint, query_fingerprint

_MASTER_KEY = b"fresque-test-master-key-32bytes!"
_SEED = 20210323


def _build(telemetry=None, **overrides) -> FresqueSystem:
    config = FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=3,
        epsilon=1.0,
        alpha=2.0,
        batch_size=overrides.pop("batch_size", 8),
        **overrides,
    )
    cipher = SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))
    return FresqueSystem(config, cipher, seed=_SEED, telemetry=telemetry)


@pytest.fixture(scope="module")
def publications() -> list[list[str]]:
    generator = FluSurveyGenerator(seed=71)
    return [list(generator.raw_lines(250)) for _ in range(2)]


def _fingerprint(system, publications) -> dict:
    for lines in publications:
        system.run_publication(list(lines))
    state = cloud_state_fingerprint(system)
    state["query"] = query_fingerprint(system, 36.0, 39.0)
    return state


@pytest.fixture(scope="module")
def baseline(publications) -> dict:
    """Pinned controller, no credits, no admission control."""
    return _fingerprint(_build(), publications)


class TestCreditsAreByteInvisible:
    @pytest.mark.parametrize("credit_window", [4, 16, 1024])
    def test_fingerprint_matches_no_credit_run(
        self, publications, baseline, credit_window
    ):
        system = _build(credit_window=credit_window)
        assert _fingerprint(system, publications) == baseline

    def test_grants_actually_flowed(self, publications):
        telemetry = Telemetry()
        system = _build(telemetry=telemetry, credit_window=4)
        for lines in publications:
            system.run_publication(list(lines))
        assert telemetry.registry.counter("checking_credits_total").value > 0


class TestAdaptiveIsByteInvisible:
    def test_fingerprint_matches_pinned_run(self, publications, baseline):
        system = _build(
            adaptive_batching=True,
            min_batch_size=1,
            max_batch_size=512,
        )
        assert _fingerprint(system, publications) == baseline

    def test_adaptive_with_credits_matches_too(self, publications, baseline):
        system = _build(
            adaptive_batching=True,
            min_batch_size=1,
            max_batch_size=512,
            credit_window=32,
        )
        assert _fingerprint(system, publications) == baseline


class TestAdmissionIsByteInvisibleWhenUnderLimit:
    def test_offer_below_limit_equals_ingest(self, publications, baseline):
        """A queue limit that never trips must not change anything."""
        system = _build(ingest_queue_limit=10_000)
        for lines in publications:
            if not system._started:
                system.start()
            publication = system.dispatcher.publication
            total = max(1, len(lines))
            for position, line in enumerate(lines):
                system.pump_dummies((position + 1) / (total + 1))
                assert system.offer(line)
            system.close_publication()
            assert publication in {
                r.publication for r in system._cloud_adapter.receipts
            }
        state = cloud_state_fingerprint(system)
        state["query"] = query_fingerprint(system, 36.0, 39.0)
        assert state == baseline
        assert system.dispatcher.flow.admission.shed_total == 0
