"""Degraded mode × credit backpressure.

The two mechanisms were built separately; this suite pins their
*interaction*: a computing node dies mid-publication while the credit
window is nearly dry.  The crash redispatch must refund the dead node's
credits — without the refund the deferred batches wait forever on
grants the dead node will never cause — and the degraded run's cloud
state must stay byte-identical to a healthy baseline without credits,
because none of batching, credits or the crash may perturb record bytes
(docs/PROTOCOL.md).
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


def _config(**overrides) -> FresqueConfig:
    settings = dict(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=_NUM_NODES,
        epsilon=1.0,
        alpha=2.0,
        batch_size=8,
        deterministic_ivs=True,
    )
    settings.update(overrides)
    return FresqueConfig(**settings)


def _credit_overrides() -> dict:
    """A credit window smaller than one batch (8) — every flush
    overdraws it, so the window runs near-empty for the whole
    publication and later flushes defer."""
    return dict(credit_window=4)


def _cipher() -> SimulatedCipher:
    return SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16))


@pytest.fixture(scope="module")
def publications() -> list[list[str]]:
    generator = FluSurveyGenerator(seed=71)
    return [list(generator.raw_lines(_LINES)) for _ in range(_PUBS)]


@pytest.fixture(scope="module")
def baseline(publications) -> dict:
    """Healthy fleet, no credits: the ground truth."""
    system = FresqueSystem(_config(), _cipher(), seed=_SEED)
    for lines in publications:
        system.run_publication(lines)
    return cloud_state_fingerprint(system)


_CRASH_PLAN = [ChurnEvent(0, 60, "crash", 1)]


class TestDegradedCreditsInteraction:
    def test_sync_degraded_credits_matches_baseline(
        self, publications, baseline
    ):
        system = FresqueSystem(
            _config(**_credit_overrides()), _cipher(), seed=_SEED
        )
        system.start()
        run_churn(system, publications, ChurnPlan(_CRASH_PLAN, _NUM_NODES))
        # Synchronous processing leaves no backlog to reroute; the crash
        # only shrinks the rotation.  Equivalence is the whole claim.
        assert cloud_state_fingerprint(system) == baseline

    def test_threaded_degraded_credits_matches_baseline(
        self, publications, baseline
    ):
        from repro.runtime.cluster import ThreadedFresque

        runtime = ThreadedFresque(
            _config(**_credit_overrides()), _cipher(), seed=_SEED
        )
        with runtime:
            run_churn(
                runtime, publications, ChurnPlan(_CRASH_PLAN, _NUM_NODES)
            )
            state = cloud_state_fingerprint(runtime)
            credits = runtime.dispatcher.credits
            rerouted = runtime.dispatcher.records_rerouted
        # The crash actually rerouted backlog, the window was actually
        # exercised, and nothing is still parked behind dead credits.
        assert rerouted > 0
        assert credits.enabled
        assert credits.deferred_batches == 0
        assert state == baseline

    def test_dry_window_unsticks_only_via_refund(self, publications):
        """The mechanism behind the equivalence above: with no grants
        flowing back (the batches sit unread in a dead node's queue),
        the deferred queue stays parked until the crash redispatch
        refunds the victim's credits — the deadlock the refund exists
        to prevent."""
        import random

        from repro.core.dispatcher import Dispatcher

        dispatcher = Dispatcher(
            _config(**_credit_overrides()), rng=random.Random(7)
        )
        dispatcher.start_publication()
        lines = iter(publications[0])
        routed = []
        # Drive the window dry: no checking node behind the dispatcher,
        # so no grants ever arrive and a batch eventually defers.
        while dispatcher.credits.deferred_batches == 0:
            routed.extend(dispatcher.on_raw(next(lines)))
        parked = dispatcher.credits.deferred_batches
        assert parked > 0
        # Redispatching the victim's unread batch refunds its credits
        # and that — nothing else is flowing — releases the head.
        destination, lost_batch = routed[0]
        dispatcher.mark_node_down(int(destination.removeprefix("cn-")))
        out = dispatcher.redispatch(lost_batch)
        assert len(out) > 1  # the reroute plus released deferrals
        assert dispatcher.credits.deferred_batches < parked
