"""Flow-control unit tests (repro.core.flow, docs/BATCHING.md).

Covers the credit gate in isolation, plus its dispatcher wiring and
snapshot/restore round-trips.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core.dispatcher import Dispatcher
from repro.core.flow import CreditGate
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


def _dispatcher(flu_config, **overrides):
    return Dispatcher(
        dataclasses.replace(flu_config, **overrides),
        rng=random.Random(7),
    )


class TestDispatcherIntegration:
    def test_credit_window_defers_and_grant_releases(self, flu_config):
        dispatcher = _dispatcher(flu_config, batch_size=2, credit_window=2)
        dispatcher.start_publication()
        dispatcher.on_raw("a")
        out = dispatcher.on_raw("b")
        assert len(out) == 1  # first batch consumes the whole window
        dispatcher.on_raw("c")
        assert dispatcher.on_raw("d") == []  # flushed but deferred
        assert dispatcher.credits.deferred_batches == 1
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
        assert dispatcher.credits.deferred_batches == 1
        out = dispatcher.end_publication()
        kinds = [type(m).__name__ for _, m in out]
        last_batch = max(
            i for i, kind in enumerate(kinds) if kind == "RawBatch"
        )
        first_publishing = kinds.index("PublishingMsg")
        assert last_batch < first_publishing
        assert dispatcher.credits.deferred_batches == 0
        assert dispatcher.credits.available == 2  # window reset

    def test_snapshot_restore_preserves_flow_state(self, flu_config):
        dispatcher = _dispatcher(flu_config, batch_size=2, credit_window=2)
        dispatcher.start_publication()
        for line in ("a", "b", "c", "d", "e"):
            dispatcher.on_raw(line)
        state = dispatcher.snapshot()
        other = _dispatcher(flu_config, batch_size=2, credit_window=2)
        other.restore(state)
        assert other.credits.snapshot() == dispatcher.credits.snapshot()
        assert other.pending_batch_records == dispatcher.pending_batch_records
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
