"""Unit tests for elastic membership (repro.core.membership).

The :class:`Membership` object is the single authority over the
computing-node fleet: who is active, which epoch the fleet is at, and
where the round-robin cursor points (docs/PROTOCOL.md).  These tests pin
the transition rules in isolation, then the dispatcher-level contracts
the runtimes build on: admit/retire/rejoin outboxes, epoch stamping
and the crash redispatch.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.dispatcher import Dispatcher
from repro.core.membership import ACTIVE, DOWN, RETIRED, Membership
from repro.core.messages import MembershipMsg, NodeDown, RawBatch


class TestMembershipTransitions:
    def test_initial_fleet_all_active_at_epoch_zero(self):
        membership = Membership(3)
        assert membership.epoch == 0
        assert membership.active_ids == [0, 1, 2]
        assert membership.join_epochs == {0: 0, 1: 0, 2: 0}

    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError):
            Membership(0)

    def test_admit_assigns_next_id_and_bumps_epoch(self):
        membership = Membership(2)
        assert membership.admit() == 2
        assert membership.epoch == 1
        assert membership.active_ids == [0, 1, 2]
        assert membership.join_epochs[2] == 1

    def test_admit_of_existing_node_refused(self):
        membership = Membership(2)
        with pytest.raises(ValueError, match="already admitted"):
            membership.admit(1)
        with pytest.raises(ValueError, match="invalid"):
            membership.admit(-1)

    def test_retire_drains_node_out_of_rotation(self):
        membership = Membership(2)
        membership.retire(0)
        assert membership.state_of(0) == RETIRED
        assert membership.active_ids == [1]
        assert membership.epoch == 1

    def test_retire_last_active_refused(self):
        membership = Membership(1)
        with pytest.raises(RuntimeError, match="last active"):
            membership.retire(0)

    def test_retire_requires_active(self):
        membership = Membership(3)
        membership.mark_down(1)
        with pytest.raises(ValueError, match="not active"):
            membership.retire(1)

    def test_mark_down_is_idempotent(self):
        membership = Membership(2)
        assert membership.mark_down(0) is True
        epoch = membership.epoch
        assert membership.mark_down(0) is False
        assert membership.epoch == epoch
        assert membership.state_of(0) == DOWN

    def test_mark_down_refuses_to_empty_fleet(self):
        membership = Membership(1)
        with pytest.raises(RuntimeError, match="down"):
            membership.mark_down(0)

    def test_rejoin_raises_join_epoch_floor(self):
        membership = Membership(2)
        membership.mark_down(1)  # epoch 1
        membership.rejoin(1)  # epoch 2
        assert membership.state_of(1) == ACTIVE
        assert membership.join_epochs[1] == 2
        assert membership.epoch == 2

    def test_rejoin_requires_down(self):
        membership = Membership(2)
        with pytest.raises(ValueError, match="not down"):
            membership.rejoin(1)

    def test_unknown_node_rejected_everywhere(self):
        membership = Membership(2)
        for action in (
            membership.retire,
            membership.mark_down,
            membership.rejoin,
            membership.state_of,
        ):
            with pytest.raises(ValueError, match="unknown"):
                action(9)

    def test_round_robin_skips_inactive(self):
        membership = Membership(3)
        membership.mark_down(1)
        destinations = [membership.next_destination() for _ in range(4)]
        assert destinations == ["cn-0", "cn-2", "cn-0", "cn-2"]

    def test_round_robin_over_grown_fleet(self):
        membership = Membership(2)
        membership.admit()
        destinations = [membership.next_destination() for _ in range(3)]
        assert destinations == ["cn-0", "cn-1", "cn-2"]

    def test_round_robin_with_everyone_down_raises(self):
        membership = Membership(2)
        membership.mark_down(0)
        membership._states[1] = DOWN  # bypass the empty-fleet guard
        with pytest.raises(RuntimeError):
            membership.next_destination()

    def test_snapshot_restore_round_trip(self):
        membership = Membership(3)
        membership.admit()
        membership.mark_down(1)
        membership.rejoin(1)
        membership.retire(2)
        membership.next_destination()
        other = Membership(3)
        other.restore(membership.snapshot())
        assert other.snapshot() == membership.snapshot()
        assert other.epoch == membership.epoch
        assert other.active_ids == membership.active_ids
        # Cursor restored too: the rotation continues where it left off.
        assert other.next_destination() == membership.next_destination()


def _dispatcher(flu_config, **overrides):
    return Dispatcher(
        dataclasses.replace(flu_config, **overrides),
        rng=random.Random(7),
    )


def _membership_msgs(out):
    return [m for _, m in out if isinstance(m, MembershipMsg)]


class TestDispatcherMembership:
    def test_admit_emits_full_state_membership_msg(self, flu_config):
        dispatcher = _dispatcher(flu_config)
        dispatcher.start_publication()
        node_id, out = dispatcher.admit_node()
        assert node_id == 3
        (msg,) = _membership_msgs(out)
        assert msg.epoch == 1
        assert msg.members == (0, 1, 2, 3)
        assert (3, 1) in msg.joined

    def test_admit_flushes_pending_batch_under_old_epoch(self, flu_config):
        dispatcher = _dispatcher(flu_config, batch_size=64)
        dispatcher.start_publication()
        dispatcher.on_raw("pending line")
        _, out = dispatcher.admit_node()
        batch = next(m for _, m in out if isinstance(m, RawBatch))
        # Flushed before the epoch bump: the batch is stamped with the
        # epoch it was accumulated under, not the post-admit one.
        assert batch.epoch == 0
        assert dispatcher.membership.epoch == 1

    def test_retire_keeps_node_reachable_for_publishing(self, flu_config):
        dispatcher = _dispatcher(flu_config)
        dispatcher.start_publication()
        dispatcher.on_raw("a")
        dispatcher.retire_node(1)
        out = dispatcher.end_publication()
        publishing_targets = {
            destination
            for destination, m in out
            if type(m).__name__ == "PublishingMsg" and destination != "checking"
        }
        # The retiree participated in the interval, so it still gets the
        # close broadcast (drain, not drop).
        assert "cn-1" in publishing_targets

    def test_mark_node_down_idempotent_outbox(self, flu_config):
        dispatcher = _dispatcher(flu_config)
        dispatcher.start_publication()
        out = dispatcher.mark_node_down(1)
        assert [type(m).__name__ for _, m in out] == ["NodeDown"]
        assert dispatcher.mark_node_down(1) == []

    def test_rejoin_announces_new_join_epoch(self, flu_config):
        dispatcher = _dispatcher(flu_config)
        dispatcher.start_publication()
        dispatcher.mark_node_down(1)
        out = dispatcher.rejoin_node(1)
        (msg,) = _membership_msgs(out)
        assert msg.epoch == 2
        assert (1, 2) in msg.joined
        assert 1 not in msg.down

    def test_redispatch_never_restamps(self, flu_config):
        dispatcher = _dispatcher(flu_config, batch_size=2)
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
        assert rerouted.seq == batch.seq
        assert rerouted.ordinal == batch.ordinal
        assert rerouted.epoch == batch.epoch

    def test_publishing_excludes_down_includes_retired(self, flu_config):
        dispatcher = _dispatcher(flu_config)
        dispatcher.start_publication()
        dispatcher.on_raw("a")
        dispatcher.retire_node(2)
        dispatcher.mark_node_down(1)
        out = dispatcher.end_publication()
        checking_publishing = next(
            m
            for destination, m in out
            if destination == "checking"
            and type(m).__name__ == "PublishingMsg"
        )
        assert set(checking_publishing.nodes) == {0, 2}
