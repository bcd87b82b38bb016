"""Unit tests for the fixed fleet's membership.

The dispatcher is the single authority over the computing-node fleet:
the ids ``0..k-1`` fixed at configuration, the dead set a crash grows,
and the round-robin cursor (docs/PROTOCOL.md).  A crash only ever
shrinks the fleet; nothing is admitted, retired or rejoins.  These tests
pin the transition rules, then the outboxes the runtimes build on.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.dispatcher import Dispatcher
from repro.core.messages import NodeDown, PublishingMsg
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore

_MASTER_KEY = b"fresque-test-master-key-32bytes!"


def _dispatcher(flu_config, **overrides):
    return Dispatcher(
        dataclasses.replace(flu_config, **overrides),
        rng=random.Random(7),
    )


class TestMembershipTransitions:
    def test_mark_down_is_idempotent(self, flu_config):
        dispatcher = _dispatcher(flu_config, num_computing_nodes=2)
        dispatcher.start_publication()
        assert dispatcher.mark_node_down(0) != []
        assert dispatcher.mark_node_down(0) == []
        assert dispatcher.dead_nodes == {0}
        assert dispatcher.live_computing_nodes == [1]

    def test_unknown_node_rejected_everywhere(self, flu_config):
        dispatcher = _dispatcher(flu_config, num_computing_nodes=2)
        dispatcher.start_publication()
        with pytest.raises(ValueError, match="unknown"):
            dispatcher.mark_node_down(9)
        system = FresqueSystem(
            dataclasses.replace(flu_config, num_computing_nodes=2),
            SimulatedCipher(KeyStore(_MASTER_KEY, key_size=16)),
            seed=7,
        )
        with pytest.raises(ValueError, match="unknown"):
            system.crash_node(9)
        # Refused before anything is killed: the whole fleet still works.
        assert system.dispatcher.dead_nodes == frozenset()
        assert system.dispatcher.live_computing_nodes == [0, 1]

    def test_round_robin_skips_inactive(self, flu_config):
        dispatcher = _dispatcher(flu_config, num_computing_nodes=3)
        dispatcher.start_publication()
        dispatcher.mark_node_down(1)
        destinations = [dispatcher.on_raw(f"l{i}")[0][0] for i in range(4)]
        assert destinations == ["cn-0", "cn-2", "cn-0", "cn-2"]


class TestDispatcherMembership:
    def test_mark_node_down_idempotent_outbox(self, flu_config):
        dispatcher = _dispatcher(flu_config)
        dispatcher.start_publication()
        out = dispatcher.mark_node_down(1)
        assert [type(m).__name__ for _, m in out] == ["NodeDown"]
        assert out == [("checking", NodeDown(0, 1))]
        assert dispatcher.mark_node_down(1) == []

    def test_publishing_excludes_down_includes_retired(self, flu_config):
        """No node retires in a fixed fleet, so every live node, and only
        those, hears the close broadcast; the down node does not."""
        dispatcher = _dispatcher(flu_config, num_computing_nodes=3)
        dispatcher.start_publication()
        dispatcher.on_raw("a")
        dispatcher.mark_node_down(1)
        out = dispatcher.end_publication()
        publishing_targets = {
            destination
            for destination, m in out
            if isinstance(m, PublishingMsg)
        }
        assert publishing_targets == {"cn-0", "cn-2", "checking"}
