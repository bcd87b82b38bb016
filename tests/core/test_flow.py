"""Flow-control unit tests (repro.core.flow, docs/BATCHING.md).

Covers the two mechanisms in isolation — the credit gate and admission
control — plus their dispatcher wiring and snapshot/restore
round-trips.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.dispatcher import Dispatcher
from repro.core.flow import (
    ADMIT,
    DROP_NEWEST,
    DROP_OLDEST,
    SHED_NEWEST,
    SHED_OLDEST,
    AdmissionController,
    CreditGate,
    FlowController,
    SheddingPolicy,
)
from repro.core.messages import CreditGrant, RawBatch


def _batch(seq, items=("x",)):
    return RawBatch(0, tuple(items), seq=seq, ordinal=seq)


class TestCreditGate:
    def test_disabled_gate_always_sends(self):
        gate = CreditGate(0)
        assert not gate.enabled
        assert gate.try_send("cn-0", _batch(0, ("a",) * 1000))
        assert gate.grant(50) == []
        assert gate.drain() == []

    def test_consumes_credits_and_defers_when_dry(self):
        gate = CreditGate(4)
        assert gate.try_send("cn-0", _batch(0, ("a", "b", "c")))
        assert gate.available == 1
        # One credit left: a 3-record batch still goes (overdraw by one
        # batch), dropping available below zero.
        assert gate.try_send("cn-1", _batch(1, ("d", "e", "f")))
        assert gate.available == -2
        assert not gate.try_send("cn-2", _batch(2))
        assert gate.deferred_batches == 1

    def test_fifo_order_preserved_under_grants(self):
        gate = CreditGate(2)
        assert gate.try_send("cn-0", _batch(0, ("a", "b")))
        assert not gate.try_send("cn-1", _batch(1, ("c", "d")))
        assert not gate.try_send("cn-2", _batch(2, ("e", "f")))
        # A later batch must not jump the deferred queue even though
        # credits became available.
        released = gate.grant(2)
        assert [batch.seq for _, batch in released] == [1]
        assert not gate.try_send("cn-0", _batch(3, ("g",)))
        # A grant is capped at the window (2), so it frees one 2-record
        # batch at a time; the next grant releases the straggler.
        released = gate.grant(4)
        assert [batch.seq for _, batch in released] == [2]
        released = gate.grant(1)
        assert [batch.seq for _, batch in released] == [3]

    def test_grants_capped_at_window(self):
        gate = CreditGate(4)
        gate.grant(1000)  # over-generous grant (dummies credited back)
        assert gate.available == 4

    def test_drain_releases_everything_and_refills(self):
        gate = CreditGate(2)
        gate.try_send("cn-0", _batch(0, ("a", "b")))
        gate.try_send("cn-1", _batch(1, ("c",)))
        gate.try_send("cn-2", _batch(2, ("d",)))
        released = gate.drain()
        assert [batch.seq for _, batch in released] == [1, 2]
        assert gate.available == gate.window
        assert gate.deferred_batches == 0

    def test_snapshot_restore_round_trip(self):
        gate = CreditGate(3)
        gate.try_send("cn-0", _batch(0, ("a", "b", "c")))
        gate.try_send("cn-1", _batch(1, ("d", "e")))
        state = gate.snapshot()
        other = CreditGate(3)
        other.restore(state)
        assert other.available == gate.available
        assert other.snapshot() == state
        released = other.grant(5)
        assert [batch.seq for _, batch in released] == [1]
        assert released[0][0] == "cn-1"
        assert released[0][1].items == ("d", "e")


class TestAdmissionControl:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SheddingPolicy(queue_limit=-1)
        with pytest.raises(ValueError):
            SheddingPolicy(queue_limit=4, mode="drop-random")
        assert not SheddingPolicy(0).enabled
        assert SheddingPolicy(1).enabled

    def test_unbounded_always_admits(self):
        admission = AdmissionController(SheddingPolicy(0))
        assert admission.decide(10**9) == ADMIT
        assert admission.shed_total == 0

    def test_drop_newest_over_limit(self):
        admission = AdmissionController(SheddingPolicy(4, DROP_NEWEST))
        assert admission.decide(3) == ADMIT
        assert admission.decide(4) == SHED_NEWEST
        admission.record_shed(DROP_NEWEST)
        assert admission.shed == {DROP_NEWEST: 1, DROP_OLDEST: 0}

    def test_drop_oldest_over_limit(self):
        admission = AdmissionController(SheddingPolicy(4, DROP_OLDEST))
        assert admission.decide(4) == SHED_OLDEST


def _dispatcher(flu_config, **overrides):
    return Dispatcher(
        dataclasses.replace(flu_config, **overrides),
        rng=random.Random(7),
    )


class TestDispatcherIntegration:
    def test_offer_raw_drop_newest_sheds_arrival(self, flu_config):
        dispatcher = _dispatcher(
            flu_config, batch_size=64, ingest_queue_limit=2
        )
        dispatcher.start_publication()
        assert dispatcher.offer_raw("a") == []
        assert dispatcher.offer_raw("b") == []
        assert dispatcher.offer_raw("c") is None  # backlog at the limit
        assert dispatcher.pending_batch_records == 2
        assert dispatcher.flow.admission.shed == {
            DROP_NEWEST: 1,
            DROP_OLDEST: 0,
        }
        # The close flush ships only the admitted records.
        out = dispatcher.end_publication()
        batch = next(m for _, m in out if isinstance(m, RawBatch))
        assert [i for i in batch.items if isinstance(i, str)] == ["a", "b"]

    def test_offer_raw_drop_oldest_evicts_head(self, flu_config):
        dispatcher = _dispatcher(
            flu_config,
            batch_size=64,
            ingest_queue_limit=2,
            shed_policy="drop-oldest",
        )
        dispatcher.start_publication()
        dispatcher.offer_raw("a")
        dispatcher.offer_raw("b")
        assert dispatcher.offer_raw("c") == []  # admitted, "a" evicted
        assert dispatcher.pending_batch_records == 2
        out = dispatcher.end_publication()
        batch = next(m for _, m in out if isinstance(m, RawBatch))
        assert [i for i in batch.items if isinstance(i, str)] == ["b", "c"]
        # Eviction preserved ordinal == records_dispatched - len(batch)
        # at flush time: 3 dispatched, 2 in the batch, so ordinal 1.
        assert batch.ordinal == 1

    def test_credit_window_defers_and_grant_releases(self, flu_config):
        dispatcher = _dispatcher(flu_config, batch_size=2, credit_window=2)
        dispatcher.start_publication()
        dispatcher.on_raw("a")
        out = dispatcher.on_raw("b")
        assert len(out) == 1  # first batch consumes the whole window
        dispatcher.on_raw("c")
        assert dispatcher.on_raw("d") == []  # flushed but deferred
        assert dispatcher.flow.credits.deferred_batches == 1
        released = dispatcher.on_credit(CreditGrant(0, 2))
        (destination, batch), = released
        assert batch.items == ("c", "d")
        assert destination.startswith("cn-")

    def test_end_publication_drains_deferred_before_publishing(
        self, flu_config
    ):
        dispatcher = _dispatcher(flu_config, batch_size=2, credit_window=2)
        dispatcher.start_publication()
        for line in ("a", "b", "c", "d"):
            dispatcher.on_raw(line)
        assert dispatcher.flow.credits.deferred_batches == 1
        out = dispatcher.end_publication()
        kinds = [type(m).__name__ for _, m in out]
        last_batch = max(
            i for i, kind in enumerate(kinds) if kind == "RawBatch"
        )
        first_publishing = kinds.index("PublishingMsg")
        assert last_batch < first_publishing
        assert dispatcher.flow.credits.deferred_batches == 0
        assert dispatcher.flow.credits.available == 2  # window reset

    def test_snapshot_restore_preserves_flow_state(self, flu_config):
        dispatcher = _dispatcher(flu_config, batch_size=2, credit_window=2)
        dispatcher.start_publication()
        for line in ("a", "b", "c", "d", "e"):
            dispatcher.on_raw(line)
        state = dispatcher.snapshot()
        other = _dispatcher(flu_config, batch_size=2, credit_window=2)
        other.restore(state)
        assert other.flow.credits.snapshot() == dispatcher.flow.credits.snapshot()
        assert other.backlog_records == dispatcher.backlog_records
        # The restored gate still releases the deferred batch on grant.
        released = other.on_credit(CreditGrant(0, 2))
        assert [batch.items for _, batch in released] == [("c", "d")]

    def test_restore_pre_flow_snapshot_is_compatible(self, flu_config):
        dispatcher = _dispatcher(flu_config, batch_size=4)
        dispatcher.start_publication()
        dispatcher.on_raw("a")
        state = dispatcher.snapshot()
        del state["flow"]  # snapshot written before this module existed
        other = _dispatcher(flu_config, batch_size=4)
        other.restore(state)
        assert other.pending_batch_records == 1
        assert other.batch_size == 4


class TestFlowControllerBundle:
    def test_restore_none_is_noop(self, flu_config):
        flow = FlowController(dataclasses.replace(flu_config, batch_size=8))
        before = flow.snapshot()
        flow.restore(None)
        assert flow.snapshot() == before
