"""Degraded mode: a crash mid-publication leaves the cloud unchanged.

A computing node dies mid-publication; the survivors absorb its share of
the stream, and on a concurrent runtime its unread backlog is
redispatched to them.  The degraded run's cloud state must stay
byte-identical to a healthy baseline, because neither batching nor the
crash may perturb record bytes (docs/PROTOCOL.md).
"""

from __future__ import annotations

import pytest

from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.records.schema import flu_survey_schema
from repro.runtime.chaos import ChurnEvent, ChurnPlan, run_churn

from tests.conftest import cloud_state_fingerprint

_MASTER_KEY = b"fresque-test-master-key-32bytes!"
_SEED = 20210323
_NUM_NODES = 3
_LINES = 120
_PUBS = 2


def _config() -> FresqueConfig:
    return FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=_NUM_NODES,
        epsilon=1.0,
        alpha=2.0,
        batch_size=8,
        deterministic_ivs=True,
    )


def _cipher() -> SimulatedCipher:
    return SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))


@pytest.fixture(scope="module")
def publications() -> list[list[str]]:
    generator = FluSurveyGenerator(seed=71)
    return [list(generator.raw_lines(_LINES)) for _ in range(_PUBS)]


@pytest.fixture(scope="module")
def baseline(publications) -> dict:
    """Healthy fleet: the ground truth."""
    system = FresqueSystem(_config(), _cipher(), seed=_SEED)
    for lines in publications:
        system.run_publication(lines)
    return cloud_state_fingerprint(system)


_CRASH_PLAN = [ChurnEvent(0, 60, "crash", 1)]


class TestDegradedMatchesBaseline:
    def test_sync_crash_matches_baseline(self, publications, baseline):
        system = FresqueSystem(_config(), _cipher(), seed=_SEED)
        system.start()
        run_churn(system, publications, ChurnPlan(_CRASH_PLAN, _NUM_NODES))
        # Synchronous processing leaves no backlog to reroute; the crash
        # only shrinks the rotation.  Equivalence is the whole claim.
        assert cloud_state_fingerprint(system) == baseline

    def test_threaded_crash_matches_baseline(self, publications, baseline):
        from repro.runtime.cluster import ThreadedFresque

        runtime = ThreadedFresque(_config(), _cipher(), seed=_SEED)
        with runtime:
            run_churn(
                runtime, publications, ChurnPlan(_CRASH_PLAN, _NUM_NODES)
            )
            state = cloud_state_fingerprint(runtime)
            rerouted = runtime.dispatcher.records_rerouted
        # The crash actually rerouted backlog.
        assert rerouted > 0
        assert state == baseline
