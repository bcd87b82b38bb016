"""Cross-runtime chaos equivalence: elastic fleet ≡ static fleet.

The tentpole acceptance drill for runtime membership
(docs/PROTOCOL.md): a seeded :class:`ChurnPlan` — admit, retire, crash
and rejoin interleaved with the ingest stream at exact record positions
— must leave the cloud in a state *byte-identical* to a static-fleet
baseline run of the same stream, on every runtime.

Why this holds: epochs version membership, never data.  Batches keep
their seq/ordinal/epoch stamps across redispatch (deterministic IVs key
off ordinals, so *which* node encrypts a record is invisible), the
dummy schedule is drawn from the dispatcher RNG independent of fleet
size, every runtime recovers a crashed node's unprocessed backlog, and
the checking-side ordering gate re-serialises arrivals and discards
stale/duplicate leftovers of dead incarnations.  Anything that breaks
one of those — a re-stamped batch, a lost backlog, a floor applied to
an admitted batch — changes the fingerprint and fails here.
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
_PUBS = 3


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
def plan() -> ChurnPlan:
    """A seeded plan covering all four actions (admit, retire, crash,
    rejoin), validated for replayability."""
    plan = ChurnPlan.seeded(
        seed=9,
        num_publications=_PUBS,
        lines_per_publication=_LINES,
        num_nodes=_NUM_NODES,
    )
    actions = {event.action for event in plan.events}
    assert actions == {"admit", "retire", "crash", "rejoin"}
    return plan


@pytest.fixture(scope="module")
def baseline(publications) -> dict:
    """Static-fleet synchronous run — the ground truth every churned
    runtime must reproduce byte for byte."""
    system = FresqueSystem(_config(), _cipher(), seed=_SEED)
    for lines in publications:
        system.run_publication(lines)
    return cloud_state_fingerprint(system)


class TestChurnEquivalence:
    def test_sync_churned_matches_static(self, publications, plan, baseline):
        system = FresqueSystem(_config(), _cipher(), seed=_SEED)
        system.start()
        run_churn(system, publications, plan)
        assert cloud_state_fingerprint(system) == baseline

    def test_threaded_churned_matches_static(
        self, publications, plan, baseline
    ):
        from repro.runtime.cluster import ThreadedFresque

        runtime = ThreadedFresque(_config(), _cipher(), seed=_SEED)
        with runtime:
            run_churn(runtime, publications, plan)
            state = cloud_state_fingerprint(runtime)
        assert state == baseline

    def test_tcp_churned_matches_static(self, publications, plan, baseline):
        from repro.runtime.tcp import TcpFresqueCluster

        cluster = TcpFresqueCluster(_config(), _cipher(), seed=_SEED)
        with cluster:
            run_churn(cluster, publications, plan)
            state = cloud_state_fingerprint(cluster)
        assert state == baseline


class TestChurnBuildingBlocks:
    def test_no_event_plan_degenerates(self, publications, baseline):
        """run_churn with an empty plan is exactly run_publication."""
        system = FresqueSystem(_config(), _cipher(), seed=_SEED)
        system.start()
        run_churn(system, publications, ChurnPlan((), _NUM_NODES))
        assert cloud_state_fingerprint(system) == baseline

    def test_admitted_node_does_real_work(self, publications):
        """An admitted node ends up in the rotation: it processes a
        share of the stream after admission."""
        system = FresqueSystem(_config(), _cipher(), seed=_SEED)
        system.start()
        plan = ChurnPlan(
            [ChurnEvent(0, 10, "admit")], _NUM_NODES
        )
        run_churn(system, publications, plan)
        admitted = system._nodes[_NUM_NODES]
        assert admitted.parsed > 0

    def test_crash_then_rejoin_restores_full_rotation(self, publications):
        system = FresqueSystem(_config(), _cipher(), seed=_SEED)
        system.start()
        plan = ChurnPlan(
            [
                ChurnEvent(0, 30, "crash", 1),
                ChurnEvent(1, 0, "rejoin", 1),
            ],
            _NUM_NODES,
        )
        run_churn(system, publications, plan)
        membership = system.dispatcher.membership
        assert sorted(membership.active_ids) == [0, 1, 2]
        # Two epoch bumps: the crash and the rejoin.
        assert membership.epoch >= 2
        assert membership.join_epochs.get(1, 0) > 0

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_mid_sequence_rejoin_stays_equivalent(
        self, publications, baseline, victim
    ):
        """Crash in publication 0, rejoin in publication 1 — with a
        publication still to come.  Regression: the rejoined node stays
        *absolved* for publications opened before its rejoin, but it is
        live inside their publishing windows, so the done broadcast
        must still release it; withholding the DoneMsg left it holding
        every later publication's output forever (publication 2 never
        finalised and published zero records).  Parametrised over the
        victim because the failure also depended on where the victim
        sat in the broadcast order relative to finalisation."""
        system = FresqueSystem(_config(), _cipher(), seed=_SEED)
        system.start()
        plan = ChurnPlan(
            [
                ChurnEvent(0, 30, "crash", victim),
                ChurnEvent(1, 0, "rejoin", victim),
            ],
            _NUM_NODES,
        )
        run_churn(system, publications, plan)
        assert cloud_state_fingerprint(system) == baseline
