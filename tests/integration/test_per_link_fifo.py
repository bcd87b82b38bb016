"""The publishing window over one FIFO per (sender, destination) link.

Both in-process runtimes, and TCP through its one shared ``Router``,
deliver FIFO per *destination*.  A deployment with one connection per
(sender, destination) pair is FIFO only within each link, so a message
can overtake another sent earlier on a different link.  ROADMAP item 16
is to make the protocol hold under that weaker channel; until it does,
two cells of the publishing-window stream fail, and they are pinned here
as strict expected failures:

* seed 2, batch 1, healthy: a computing node's ``PairBatch`` overtakes
  the dispatcher's ``NewPublication`` and the checking node raises
  ``ProtocolError``;
* seed 0, batch 1, healthy: a ``MergedPublication`` reaches the cloud
  before its ``BufferFlush``es, so publication 1 installs with 0 pairs.

Once item 16 lands both pass, and ``strict`` turns that into a failure
that asks for the marks to go.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.checking import ProtocolError
from repro.runtime.schedule import ScheduledFresque

from tests.integration.test_publishing_window import (
    run_back_to_back,
    sync_fingerprint,
)

_DRIVER = "driver"


class PerLinkScheduled(ScheduledFresque):
    """:class:`ScheduledFresque` with one FIFO per (sender, destination)
    link.  The sender is the node whose handler produced the outbox, or
    the driver; a step delivers the head of a random non-empty link,
    links taken in sorted order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._links: dict[tuple[str, str], deque] = {}
        self._sender = _DRIVER

    def _send(self, destination: str, messages) -> bool:
        if destination not in self._stopped:
            link = (self._sender, destination)
            self._links.setdefault(link, deque()).extend(messages)
        return True

    def _pending(self) -> int:
        return len(self._downs) + sum(
            len(fifo)
            for (_, destination), fifo in self._links.items()
            if destination not in self._stopped
        )

    def _deliver(self, budget: int | None) -> None:
        while budget is None or budget > 0:
            ready = [
                link
                for link in sorted(self._links)
                if self._links[link] and link[1] not in self._stopped
            ]
            choices = len(ready) + bool(self._downs)
            if not choices:
                return
            pick = self._schedule.randrange(choices)
            if pick == len(ready):
                self._node_down(self._downs.popleft())
            else:
                _, name = ready[pick]
                message = self._links[ready[pick]].popleft()
                self._sender = name
                try:
                    self._transmit_all(self._handlers[name](message))
                finally:
                    self._sender = _DRIVER
            if budget is not None:
                budget -= 1

    def _kill_node(self, node_id: int) -> None:
        name = f"cn-{node_id}"
        self._stopped.add(name)
        for (_, destination), fifo in self._links.items():
            if destination == name:
                fifo.clear()
        self._downs.append(node_id)


@pytest.mark.xfail(
    raises=ProtocolError,
    strict=True,
    reason="ROADMAP item 16: a pair batch overtakes its NewPublication",
)
def test_seed_2_pair_batch_overtakes_its_announcement():
    state = run_back_to_back(PerLinkScheduled, 2, 1, False)
    assert state == sync_fingerprint(2)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 16: the cloud installs before its pairs arrive",
)
def test_seed_0_publication_installs_before_its_pairs():
    state = run_back_to_back(PerLinkScheduled, 0, 1, False)
    assert state["receipts"] == sync_fingerprint(0)["receipts"]
    assert state == sync_fingerprint(0)
