"""Dispatcher tests: round robin, publication lifecycle, dummy schedule."""

import random

import pytest

from repro.core.dispatcher import Dispatcher
from repro.core.messages import NewPublication, PublishingMsg, RawBatch


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
        dispatcher.start_publication()
        released = dispatcher.due_dummies(1.0)
        assert released, "expected at least one dummy under epsilon=1"
        for _, message in released:
            assert isinstance(message, RawBatch)
            (record,) = message.items
            assert record.is_dummy

    def test_dummy_values_lie_in_their_leaf(self, dispatcher, flu_config):
        (_, announcement), = dispatcher.start_publication()
        schema = flu_config.schema
        domain = flu_config.domain
        counts = [0] * domain.num_leaves
        for _, message in dispatcher.due_dummies(1.0):
            (record,) = message.items
            offset = domain.leaf_offset(record.indexed_value(schema))
            counts[offset] += 1
        for offset, noise in enumerate(announcement.plan.leaf_noise):
            assert counts[offset] == max(0, noise)

    def test_end_publication_flushes_remaining_dummies(self, dispatcher):
        dispatcher.start_publication()
        out = dispatcher.end_publication()
        batches = [m for _, m in out if isinstance(m, RawBatch)]
        for batch in batches:
            assert all(record.is_dummy for record in batch.items)
        assert dispatcher.pending_dummies == 0


class TestDegradedMode:
    def test_mark_node_down_notifies_checking(self, dispatcher):
        from repro.core.messages import NodeDown

        dispatcher.start_publication()
        out = dispatcher.mark_node_down(1)
        assert out == [("checking", NodeDown(0, 1))]
        assert dispatcher.dead_nodes == {1}
        assert dispatcher.live_computing_nodes == [0, 2]
        # Idempotent: a second report changes nothing and sends nothing.
        assert dispatcher.mark_node_down(1) == []

    def test_mark_unknown_node_rejected(self, dispatcher):
        dispatcher.start_publication()
        with pytest.raises(ValueError):
            dispatcher.mark_node_down(7)

    def test_round_robin_skips_dead_node(self, dispatcher, flu_config):
        dispatcher.start_publication()
        dispatcher.mark_node_down(1)
        destinations = [dispatcher.on_raw(f"l{i}")[0][0] for i in range(8)]
        assert "cn-1" not in destinations
        assert set(destinations) == {"cn-0", "cn-2"}

    def test_redispatch_reroutes_and_counts(self, dispatcher):
        from repro.core.messages import RawBatch

        dispatcher.start_publication()
        dispatcher.mark_node_down(0)
        message = RawBatch(0, ("orphan",))
        (destination, routed), = dispatcher.redispatch(message)
        assert destination in {"cn-1", "cn-2"}
        assert routed is message
        assert dispatcher.records_rerouted == 1

    def test_all_nodes_down_raises(self, dispatcher):
        dispatcher.start_publication()
        dispatcher.mark_node_down(0)
        dispatcher.mark_node_down(1)
        with pytest.raises(RuntimeError):
            dispatcher.mark_node_down(2)

    def test_end_publication_skips_dead_node(self, dispatcher):
        dispatcher.start_publication()
        dispatcher.mark_node_down(2)
        out = dispatcher.end_publication()
        publishing_dests = {
            dest for dest, msg in out if isinstance(msg, PublishingMsg)
        }
        assert publishing_dests == {"cn-0", "cn-1", "checking"}


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
