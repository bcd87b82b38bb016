"""A single-threaded runtime whose interleaving is replayable from a seed.

:class:`ScheduledFresque` is the collector driver
(:class:`~repro.core.system.FresqueSystem`) over one FIFO per
destination.  Nothing runs concurrently: after each driver call (an
ingest, a dummy pump, a flush, a boundary) the runtime delivers a share
of the pending messages, picking the next destination to step from a
seeded RNG, and :meth:`~ScheduledFresque.settle` delivers the rest.  So
each seed is one interleaving of the nodes, and the same seed replays
it exactly — a seed search over the interleavings threads could take,
each run compared with the synchronous driver at the same seed.

Per destination, delivery is FIFO, as with one inbox per node.  Across
destinations, everything is permuted; so are the degrade steps of
crashed computing nodes, which run where the schedule puts them, as a
supervisor noticing a dead peer would.  A crash stops the node: its FIFO
is discarded, and what is sent to it before the degrade step is lost,
for the dispatcher to re-send.
"""

from __future__ import annotations

import random
from collections import deque

from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import RecordCipher


class ScheduleStall(RuntimeError):
    """Every queue drained, yet a publication never reached the cloud."""


class ScheduledFresque(FresqueSystem):
    """A FRESQUE deployment stepped by a seeded schedule.

    Parameters
    ----------
    config, cipher, seed, telemetry:
        As for :class:`~repro.core.system.FresqueSystem`.  ``seed`` also
        draws the schedule, from an RNG of its own, so the components'
        seed chain (and every fingerprint) is the synchronous driver's.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` consulted on
        every sent message: dropped messages never reach a queue,
        duplicated ones are queued twice, delayed ones stall their
        sender.  ``sever`` has no meaning here and is ignored.
    clock:
        Time source injected into the dispatcher; its delay flush runs
        when the caller calls :meth:`poll_flush` (there is no poller).
    """

    def __init__(
        self,
        config: FresqueConfig,
        cipher: RecordCipher,
        seed: int | None = None,
        telemetry=None,
        fault_plan=None,
        clock=None,
    ):
        self._clock = clock
        self._fault_plan = fault_plan
        super().__init__(config, cipher, seed=seed, telemetry=telemetry)
        self._schedule = random.Random(f"schedule:{seed}")
        #: Share of the pending messages delivered after a driver call:
        #: near 0 the driver runs far ahead, near 1 the pipeline drains.
        self.pace = self._schedule.random() ** 2
        self._fifos: dict[str, deque] = {
            name: deque() for name in self._handlers
        }
        #: Crashed computing nodes: never stepped again.
        self._stopped: set[str] = set()
        #: Crashed nodes whose degrade step has not run yet.
        self._downs: deque[int] = deque()
        self._busy = False

    # ------------------------------------------------------------------
    # Transport: one FIFO per destination, stepped by the schedule
    # ------------------------------------------------------------------

    def _send(self, destination: str, message) -> bool:
        # Until its degrade step, a crashed node silently loses what it
        # is sent, like a peer that just died.
        if destination not in self._stopped:
            self._fifos[destination].append(message)
        return True

    def _send_all(self, outbox) -> None:
        """Queue ``outbox``; a driver call then delivers its share of
        the pending messages (a handler's outbox is only queued)."""
        if self._busy:
            self._transmit_all(outbox)
            return
        self._busy = True
        try:
            self._transmit_all(outbox)
            self._deliver(int(self.pace * self._pending()))
        finally:
            self._busy = False

    def _pending(self) -> int:
        return len(self._downs) + sum(
            len(fifo)
            for name, fifo in self._fifos.items()
            if name not in self._stopped
        )

    def _deliver(self, budget: int | None) -> None:
        """Run up to ``budget`` steps (``None``: until nothing is left).
        A step handles the head of a random non-empty FIFO, or runs a
        pending degrade step."""
        while budget is None or budget > 0:
            ready = [
                name
                for name, fifo in self._fifos.items()
                if fifo and name not in self._stopped
            ]
            choices = len(ready) + bool(self._downs)
            if not choices:
                return
            pick = self._schedule.randrange(choices)
            if pick == len(ready):
                self._node_down(self._downs.popleft())
            else:
                name = ready[pick]
                message = self._fifos[name].popleft()
                self._transmit_all(self._handlers[name](message))
            if budget is not None:
                budget -= 1

    def settle(self, publication: int, timeout: float = 120.0) -> None:
        """Deliver until every FIFO is empty; raise :class:`ScheduleStall`
        if ``publication`` is still unmatched then."""
        del timeout  # single-threaded: an empty schedule is final
        self._busy = True
        try:
            self._deliver(None)
        finally:
            self._busy = False
        if self._receipt(publication) is None:
            raise ScheduleStall(self._stall_report(publication))

    def _stall_report(self, publication: int) -> str:
        checking = self.checking
        waiting = {
            f"cn-{i}": node.held_pairs
            for i, node in enumerate(self.computing_nodes)
            if node.waiting_for_done and f"cn-{i}" not in self._dead
        }
        return (
            f"publication {publication} unmatched with every queue empty "
            f"(pace {self.pace:.3f}): the checking node holds "
            f"{checking.pending} messages and awaits seq "
            f"{checking.next_seq}; the "
            f"dispatcher's oldest unadmitted seq is "
            f"{self.dispatcher.oldest_unadmitted}; nodes awaiting done "
            f"with their held pairs: {waiting}; dead: {sorted(self._dead)}"
        )

    # ------------------------------------------------------------------
    # Crashes on this substrate
    # ------------------------------------------------------------------

    def _kill_node(self, node_id: int) -> None:
        """Stop the node at once, discarding its FIFO; its degrade step
        is queued for the schedule to place."""
        name = f"cn-{node_id}"
        self._stopped.add(name)
        self._fifos[name].clear()
        self._downs.append(node_id)
