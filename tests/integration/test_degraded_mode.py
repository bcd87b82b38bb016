"""Degraded mode: a crash mid-publication leaves the cloud unchanged.

A computing node dies mid-publication; the survivors absorb its share of
the stream, and on the scheduled and TCP runtimes the dispatcher re-sends
them the batches it shipped to the dead node that the checking node has
not admitted.  The degraded run's cloud state must stay
byte-identical to a healthy baseline, because neither batching nor the
crash may perturb record bytes (docs/PROTOCOL.md).  The baseline runs at
batch 8; every crashed run, at batch 1, 4 or 8, must match it.
"""

from __future__ import annotations

import pytest

from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.records.schema import flu_survey_schema

from tests.conftest import cloud_state_fingerprint

_MASTER_KEY = b"fresque-test-master-key-32bytes!"
_SEED = 20210323
_NUM_NODES = 3
_LINES = 120
_PUBS = 2
#: Node 1 crashes before line 60 of publication 0.
_VICTIM = 1
_CRASH_AT = 60
_BATCH_SIZES = (1, 4, 8)


def _config(batch_size: int = 8) -> FresqueConfig:
    return FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=_NUM_NODES,
        epsilon=1.0,
        alpha=2.0,
        batch_size=batch_size,
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


def _run_with_crash(system, publications) -> None:
    """Feed ``publications`` with ``run_publication``'s dummy pacing,
    crashing node 1 before line 60 of the first; every publication must
    reach the cloud."""
    for index, lines in enumerate(publications):
        total = max(1, len(lines))
        for position, line in enumerate(lines):
            if index == 0 and position == _CRASH_AT:
                system.crash_node(_VICTIM)
            system.pump_dummies((position + 1) / (total + 1))
            system.ingest(line)
        assert system.finish_publication() is not None


@pytest.mark.parametrize("batch_size", _BATCH_SIZES)
class TestDegradedMatchesBaseline:
    def test_sync_crash_matches_baseline(
        self, publications, baseline, batch_size
    ):
        system = FresqueSystem(_config(batch_size), _cipher(), seed=_SEED)
        system.start()
        _run_with_crash(system, publications)
        # Synchronous processing admits every shipped batch between
        # calls, so nothing is re-sent; the crash only shrinks the
        # rotation.  Equivalence is the whole claim.
        assert system.dispatcher.records_rerouted == 0
        assert cloud_state_fingerprint(system) == baseline

    def test_scheduled_crash_matches_baseline(
        self, publications, baseline, batch_size
    ):
        from repro.runtime.schedule import ScheduledFresque

        runtime = ScheduledFresque(_config(batch_size), _cipher(), seed=_SEED)
        with runtime:
            _run_with_crash(runtime, publications)
            state = cloud_state_fingerprint(runtime)
            rerouted = runtime.dispatcher.records_rerouted
        # The crash actually re-sent batches: those shipped to the victim
        # and not admitted before its degrade step ran.
        assert rerouted > 0
        assert state == baseline

    def test_tcp_crash_matches_baseline(
        self, publications, baseline, batch_size
    ):
        from repro.runtime.tcp import TcpFresqueCluster

        cluster = TcpFresqueCluster(_config(batch_size), _cipher(), seed=_SEED)
        with cluster:
            _run_with_crash(cluster, publications)
            state = cloud_state_fingerprint(cluster)
            dead = cluster.dead_nodes
        assert dead == {f"cn-{_VICTIM}"}
        assert state == baseline
