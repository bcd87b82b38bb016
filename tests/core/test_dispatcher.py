"""Dispatcher tests: round robin, publication lifecycle, dummy schedule,
and the fixed fleet's degraded mode (a crash only ever shrinks it)."""

import dataclasses
import random

import pytest

from repro.core.config import ConfigError
from repro.core.dispatcher import Dispatcher
from repro.core.messages import (
    Admitted,
    NewPublication,
    NodeDown,
    PublishingMsg,
    RawBatch,
)
from repro.durability.checkpoint import (
    FORMAT,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.records.record import make_dummy


@pytest.fixture
def dispatcher(flu_config):
    return Dispatcher(flu_config, rng=random.Random(33))


class TestLifecycle:
    def test_start_announces_to_checking(self, dispatcher):
        out = dispatcher.start_publication()
        assert len(out) == 1
        destination, message = out[0]
        assert destination == "checking"
        assert isinstance(message, NewPublication)
        assert message.publication == 0

    def test_publication_numbers_monotonic(self, dispatcher):
        first = dispatcher.start_publication()[0][1]
        dispatcher.end_publication()
        second = dispatcher.start_publication()[0][1]
        assert (first.publication, second.publication) == (0, 1)

    def test_end_broadcasts_publishing(self, dispatcher, flu_config):
        dispatcher.start_publication()
        out = dispatcher.end_publication()
        publishing = [
            (dest, msg) for dest, msg in out if isinstance(msg, PublishingMsg)
        ]
        destinations = {dest for dest, _ in publishing}
        expected = {f"cn-{i}" for i in range(flu_config.num_computing_nodes)}
        expected.add("checking")
        assert destinations == expected


class TestRoundRobin:
    def test_cycles_over_computing_nodes(self, dispatcher, flu_config):
        dispatcher.start_publication()
        destinations = [dispatcher.on_raw(f"line-{i}")[0][0] for i in range(9)]
        k = flu_config.num_computing_nodes
        assert destinations == [f"cn-{i % k}" for i in range(9)]

    def test_raw_batch_carries_publication(self, dispatcher):
        dispatcher.start_publication()
        _, message = dispatcher.on_raw("x")[0]
        assert isinstance(message, RawBatch)
        assert message.publication == 0
        assert message.items == ("x",)


class TestDummySchedule:
    def test_dummies_match_noise_plan(self, dispatcher):
        (_, announcement), = dispatcher.start_publication()
        expected = announcement.plan.total_dummies
        assert dispatcher.pending_dummies == expected

    def test_due_dummies_release_in_fraction_order(self, dispatcher):
        dispatcher.start_publication()
        total = dispatcher.pending_dummies
        early = dispatcher.due_dummies(0.5)
        late = dispatcher.due_dummies(1.0)
        assert len(early) + len(late) == total
        assert dispatcher.pending_dummies == 0

    def test_dummy_records_are_flagged(self, dispatcher):
        """A dummy travels as its indexed value — a number, never a raw
        line — and the computing node renders it flagged."""
        dispatcher.start_publication()
        released = dispatcher.due_dummies(1.0)
        assert released, "expected at least one dummy under epsilon=1"
        for _, message in released:
            assert isinstance(message, RawBatch)
            (value,) = message.items
            assert isinstance(value, (int, float))

    def test_dummy_values_lie_in_their_leaf(self, dispatcher, flu_config):
        (_, announcement), = dispatcher.start_publication()
        schema = flu_config.schema
        domain = flu_config.domain
        counts = [0] * domain.num_leaves
        for _, message in dispatcher.due_dummies(1.0):
            (value,) = message.items
            dummy = make_dummy(schema, value)
            offset = domain.leaf_offset(dummy.indexed_value(schema))
            counts[offset] += 1
        for offset, noise in enumerate(announcement.plan.leaf_noise):
            assert counts[offset] == max(0, noise)

    def test_end_publication_flushes_remaining_dummies(self, dispatcher):
        dispatcher.start_publication()
        out = dispatcher.end_publication()
        batches = [m for _, m in out if isinstance(m, RawBatch)]
        for batch in batches:
            assert not any(isinstance(item, str) for item in batch.items)
        assert dispatcher.pending_dummies == 0


class TestDegradedMode:
    def test_needs_at_least_one_node(self, flu_config):
        with pytest.raises(ConfigError, match="at least one computing node"):
            dataclasses.replace(flu_config, num_computing_nodes=0)

    def test_mark_node_down_notifies_checking(self, dispatcher):
        dispatcher.start_publication()
        out = dispatcher.mark_node_down(1)
        assert out == [("checking", NodeDown(0, 1))]
        assert dispatcher.dead_nodes == {1}
        assert dispatcher.live_computing_nodes == [0, 2]
        # Idempotent: a second report changes nothing and sends nothing.
        assert dispatcher.mark_node_down(1) == []
        assert dispatcher.dead_nodes == {1}
        assert dispatcher.live_computing_nodes == [0, 2]

    def test_mark_unknown_node_rejected(self, dispatcher):
        dispatcher.start_publication()
        for node_id in (7, 3, -1):
            with pytest.raises(ValueError, match="unknown computing node"):
                dispatcher.mark_node_down(node_id)
        assert dispatcher.dead_nodes == frozenset()

    def test_round_robin_skips_dead_node(self, dispatcher, flu_config):
        dispatcher.start_publication()
        dispatcher.mark_node_down(1)
        destinations = [dispatcher.on_raw(f"l{i}")[0][0] for i in range(8)]
        assert destinations == ["cn-0", "cn-2"] * 4

    def test_round_robin_resumes_past_a_node_that_dies(self, dispatcher):
        """The cursor keeps its place: a crash mid-rotation skips the
        dead id where it falls, and the rotation order is unchanged."""
        dispatcher.start_publication()
        first = [dispatcher.on_raw(f"a{i}")[0][0] for i in range(4)]
        dispatcher.mark_node_down(2)
        then = [dispatcher.on_raw(f"b{i}")[0][0] for i in range(4)]
        assert first == ["cn-0", "cn-1", "cn-2", "cn-0"]
        assert then == ["cn-1", "cn-0", "cn-1", "cn-0"]

    def test_redispatch_reroutes_and_counts(self, dispatcher):
        dispatcher.start_publication()
        dispatcher.mark_node_down(0)
        message = RawBatch(0, ("orphan",))
        (destination, routed), = dispatcher.redispatch(message)
        assert destination in {"cn-1", "cn-2"}
        assert routed is message
        assert dispatcher.records_rerouted == 1

    def test_redispatch_never_restamps(self, flu_config):
        dispatcher = Dispatcher(
            dataclasses.replace(flu_config, batch_size=2),
            rng=random.Random(7),
        )
        dispatcher.start_publication()
        dispatcher.on_raw("a")
        (destination, batch), = dispatcher.on_raw("b")
        dispatcher.mark_node_down(int(destination.removeprefix("cn-")))
        # The reroute is the whole outbox, and the SAME object (stamps
        # intact) goes to a survivor.
        (reroute_destination, rerouted), = dispatcher.redispatch(batch)
        assert rerouted is batch
        assert reroute_destination != destination
        assert dispatcher.records_rerouted == 2
        assert (rerouted.seq, rerouted.ordinal) == (0, 0)

    def test_all_nodes_down_raises(self, dispatcher):
        dispatcher.start_publication()
        dispatcher.mark_node_down(0)
        dispatcher.mark_node_down(1)
        with pytest.raises(RuntimeError, match="every computing node"):
            dispatcher.mark_node_down(2)
        # Refused, not half-applied: the last node stays in rotation.
        assert dispatcher.live_computing_nodes == [2]
        assert dispatcher.on_raw("still ingesting")[0][0] == "cn-2"

    def test_single_node_fleet_refuses_its_crash(self, flu_config):
        dispatcher = Dispatcher(
            dataclasses.replace(flu_config, num_computing_nodes=1),
            rng=random.Random(7),
        )
        dispatcher.start_publication()
        with pytest.raises(RuntimeError, match="every computing node"):
            dispatcher.mark_node_down(0)
        assert dispatcher.dead_nodes == frozenset()

    def test_dispatch_with_every_node_down_raises(self, dispatcher):
        dispatcher.start_publication()
        dispatcher.mark_node_down(0)
        dispatcher.mark_node_down(1)
        dispatcher._dead.add(2)  # bypass the empty-fleet guard
        with pytest.raises(RuntimeError, match="every computing node"):
            dispatcher.on_raw("nowhere to go")

    def test_end_publication_skips_dead_node(self, dispatcher):
        dispatcher.start_publication()
        dispatcher.mark_node_down(2)
        out = dispatcher.end_publication()
        publishing_dests = {
            dest for dest, msg in out if isinstance(msg, PublishingMsg)
        }
        assert publishing_dests == {"cn-0", "cn-1", "checking"}

    def test_snapshot_restore_round_trip(self, flu_config):
        """Through the bytes a checkpoint file is: the dead set and the
        round-robin cursor come back, so the rotation continues where it
        left off."""
        config = dataclasses.replace(flu_config, batch_size=2)
        dispatcher = Dispatcher(config, rng=random.Random(7))
        dispatcher.start_publication()
        for i in range(5):
            dispatcher.on_raw(f"l{i}")
        dispatcher.mark_node_down(1)
        document = encode_checkpoint({"format": FORMAT, "state": dispatcher.snapshot()})
        restored = Dispatcher(config, rng=random.Random(1))
        restored.restore(decode_checkpoint(document)["state"])
        assert encode_checkpoint({"format": FORMAT, "state": restored.snapshot()}) == document
        assert restored.dead_nodes == {1}
        for i in range(6):
            assert restored.on_raw(f"m{i}") == dispatcher.on_raw(f"m{i}")


class TestUpstreamBackup:
    """The dispatcher retains every shipped batch until the checking
    node admits its seq, and a dead node's unadmitted batches are what
    it re-sends (docs/PROTOCOL.md, "Redispatch")."""

    def _shipped(self, dispatcher, count):
        dispatcher.start_publication()
        return [
            dispatcher.on_raw(f"line-{i}")[0] for i in range(count)
        ]

    def test_ship_retains(self, dispatcher):
        assert dispatcher.oldest_unadmitted is None
        shipped = self._shipped(dispatcher, 6)
        assert [batch.seq for _, batch in shipped] == list(range(6))
        assert dispatcher.oldest_unadmitted == 0
        for node_id in range(3):
            assert dispatcher.resend(node_id) == [
                batch
                for destination, batch in shipped
                if destination == f"cn-{node_id}"
            ]

    def test_admitted_frees_exactly_its_seq(self, dispatcher):
        shipped = self._shipped(dispatcher, 6)
        assert dispatcher.handle(Admitted(0)) == []
        assert dispatcher.oldest_unadmitted == 1
        dispatcher.handle(Admitted(3))  # cn-0's second batch
        assert dispatcher.resend(0) == []
        assert dispatcher.resend(1) == [shipped[1][1], shipped[4][1]]
        assert dispatcher.resend(2) == [shipped[2][1], shipped[5][1]]
        for seq in (1, 2, 4, 5):
            dispatcher.handle(Admitted(seq))
        assert dispatcher.oldest_unadmitted is None

    def test_resend_returns_the_dead_nodes_unadmitted_batches(
        self, dispatcher
    ):
        """In seq order, as the same objects, and only the dead node's."""
        shipped = self._shipped(dispatcher, 9)
        dispatcher.handle(Admitted(4))  # cn-1's second batch
        dispatcher.mark_node_down(1)
        resent = dispatcher.resend(1)
        assert [batch.seq for batch in resent] == [1, 7]
        assert resent[0] is shipped[1][1] and resent[1] is shipped[7][1]
        assert dispatcher.resend(1) == resent  # retained until admitted

    def test_a_batch_resent_to_a_node_that_dies_is_resent_again(
        self, dispatcher
    ):
        (_, zero), (_, one), (_, two) = self._shipped(dispatcher, 3)
        dispatcher.mark_node_down(0)
        assert dispatcher.redispatch(zero) == [("cn-1", zero)]
        assert dispatcher.resend(0) == []
        assert dispatcher.resend(1) == [zero, one]  # seq order
        dispatcher.mark_node_down(1)
        assert [
            dispatcher.redispatch(batch)[0] for batch in dispatcher.resend(1)
        ] == [("cn-2", zero), ("cn-2", one)]
        dispatcher.handle(Admitted(0))
        assert dispatcher.resend(2) == [one, two]
        assert dispatcher.records_rerouted == 3

    def test_an_ack_from_another_thread_is_seen_by_the_resend(
        self, dispatcher
    ):
        """``Admitted`` is recorded on whichever thread delivers it,
        without the driver's lock; the next resend still sees it."""
        import threading

        shipped = self._shipped(dispatcher, 6)
        acks = threading.Thread(
            target=lambda: [dispatcher.handle(Admitted(seq)) for seq in (0, 3)]
        )
        acks.start()
        acks.join()
        assert dispatcher.resend(0) == []
        assert dispatcher.oldest_unadmitted == 1
        assert dispatcher.resend(1) == [shipped[1][1], shipped[4][1]]

    def test_acks_and_readers_racing_the_driver_lose_nothing(
        self, dispatcher
    ):
        """Two threads admit every batch as it ships and a third reads
        ``oldest_unadmitted`` throughout, at a 1 µs switch interval: no
        reader fails and every admitted batch is freed."""
        import sys
        import threading

        count = 1500
        shipped = [0]
        errors = []
        done = threading.Event()

        def admit(parity):
            try:
                for seq in range(parity, count, 2):
                    while shipped[0] <= seq:
                        pass
                    dispatcher.handle(Admitted(seq))
            except Exception as exc:
                errors.append(exc)

        def read():
            try:
                while not done.is_set():
                    dispatcher.oldest_unadmitted
            except Exception as exc:
                errors.append(exc)

        dispatcher.start_publication()
        threads = [threading.Thread(target=admit, args=(p,)) for p in (0, 1)]
        threads.append(threading.Thread(target=read))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for i in range(count):
                dispatcher.on_raw(f"line-{i}")
                shipped[0] = i + 1
            for thread in threads[:2]:
                thread.join(timeout=30)
            done.set()
            threads[2].join(timeout=30)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert dispatcher.oldest_unadmitted is None

    def test_a_batch_admitted_after_its_resend_was_listed_is_not_resent(
        self, dispatcher
    ):
        """The dead node's output reached the checking node after all:
        the batch is not re-sent, and nothing stays retained for it."""
        (_, zero), (_, one), _ = self._shipped(dispatcher, 3)
        dispatcher.mark_node_down(0)
        listed = dispatcher.resend(0)
        assert listed == [zero]
        dispatcher.handle(Admitted(0))
        assert dispatcher.redispatch(zero) == []
        assert dispatcher.records_rerouted == 0
        assert dispatcher.oldest_unadmitted == 1


class TestDummyScheduleComplexity:
    def test_due_dummies_drains_from_the_front(self, dispatcher):
        """The schedule is a deque: partial drains pop from the front
        without reshuffling what remains."""
        from collections import deque

        dispatcher.start_publication()
        schedule = dispatcher._dummy_schedule
        assert isinstance(schedule, deque)
        before = list(schedule)
        released = dispatcher.due_dummies(0.3)
        assert list(schedule) == before[len(released):]
