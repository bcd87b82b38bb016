"""Threaded FRESQUE runtime.

Runs the exact component logic of ``repro.core`` on real threads — one per
node, actor style: every component is confined to its own thread and
communicates only through inboxes, mirroring the shared-nothing cluster of
the paper.  Used by the integration tests and examples to demonstrate that
the protocol is executable concurrently (out-of-order arrivals across
senders included), and to measure real — if Python-scale — ingest rates.

:class:`ThreadedFresque` is the collector driver
(:class:`~repro.core.system.FresqueSystem`) over in-process inboxes: it
supplies the send (inbox put + in-flight tracker), quiescence as
``settle``, the node threads, and the FIFO barrier a crash needs on
this substrate.
"""

from __future__ import annotations

import threading

from repro.core.computing_node import ComputingNode
from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import RecordCipher
from repro.runtime.channel import POISON, Inbox, InFlightTracker
from repro.runtime.poller import FlushPoller, poll_interval
from repro.telemetry.clock import WALL_CLOCK


class _Control:
    """In-band control message for a node thread.

    Runs ``action`` *on the node's thread*, after every message queued
    ahead of it — a FIFO barrier.  Crash handling uses it to salvage a
    dead node's held pairs only once the zombie loop has diverted the
    whole backlog.
    """

    def __init__(self, action):
        self.action = action


class ThreadedFresque(FresqueSystem):
    """A FRESQUE deployment where every node is a thread.

    Parameters
    ----------
    config:
        Deployment configuration (``num_computing_nodes`` threads plus
        checking node, merger and cloud; the dispatcher runs on the
        caller's thread).
    cipher:
        Record cipher shared with the client.
    seed:
        Seed for all randomness.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` shared by every
        component; adds per-inbox queue-depth gauges and a routed
        message counter on top of the component instrumentation.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` consulted on
        every routed message: dropped messages never reach the inbox,
        duplicated ones are enqueued twice, delayed ones stall their
        sender.  ``sever`` has no meaning for in-process channels and is
        ignored.
    clock:
        Time source injected into the dispatcher (tests use a
        :class:`~repro.telemetry.clock.SimulatedClock` to drive the
        delay flush without sleeping); defaults to the telemetry/wall
        clock.
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
        self._tracker = InFlightTracker()
        self._inboxes: dict[str, Inbox] = {}
        self._depth_gauges: dict[str, object] = {}
        self._messages_counter = self.telemetry.counter(
            "runtime_messages_total"
        )
        self._threads: list[threading.Thread] = []
        self._errors: list[BaseException] = []
        self.wall_seconds = 0.0
        self._poller = FlushPoller(
            poll_interval(config.max_batch_delay), self._poll_flush
        )

    # ------------------------------------------------------------------
    # Transport: inboxes and node threads
    # ------------------------------------------------------------------

    _send_all = FresqueSystem._transmit_all

    def _send(self, destination: str, message) -> bool:
        # Counted in flight from here until its handler (and everything
        # that handler sent) is done: quiescence is the count at zero.
        self._tracker.increment()
        inbox = self._inboxes[destination]
        inbox.put(message)
        if self.telemetry.enabled:
            self._messages_counter.inc()
            self._depth_gauges[destination].set(inbox.qsize())
        return True

    def _node_loop(self, name: str) -> None:
        inbox = self._inboxes[name]
        while True:
            message = inbox.get()
            if message is POISON:
                return
            try:
                if isinstance(message, _Control):
                    self._send_all(message.action() or [])
                elif name in self._dead:
                    # A crashed node's thread keeps running as a zombie
                    # that diverts its backlog, so the in-flight tracker
                    # can never leak on a crash.
                    self._degrade(name, message)
                else:
                    self._send_all(self._handlers[name](message))
            except BaseException as exc:  # surfaced by the driver
                self._errors.append(exc)
            finally:
                self._tracker.decrement()

    def _spawn_node_thread(self, name: str) -> None:
        self._inboxes[name] = Inbox(name)
        self._depth_gauges[name] = self.telemetry.gauge(
            "inbox_depth", node=name
        )
        thread = threading.Thread(
            target=self._node_loop,
            args=(name,),
            name=f"fresque-{name}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _spawn(self) -> None:
        self._thread_handlers()
        for name in self._handlers:
            self._spawn_node_thread(name)
        self._poller.start()

    def settle(self, publication: int, timeout: float = 120.0) -> None:
        """Block until every in-flight message has drained."""
        if not self._tracker.wait_quiescent(timeout=timeout):
            raise TimeoutError(
                f"publication {publication} did not drain "
                f"({self._tracker.count} in flight)"
            )
        self._supervise()

    def _supervise(self) -> None:
        if self._errors:
            error = self._errors[0]
            self._errors = []
            raise RuntimeError("node thread failed") from error

    def shutdown(self) -> None:
        """Stop the flush poller and every node thread."""
        self._poller.stop()
        for inbox in self._inboxes.values():
            inbox.put(POISON)
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []

    # ------------------------------------------------------------------
    # Crashes on this substrate
    # ------------------------------------------------------------------

    def _barrier(self, name: str, action) -> None:
        """Queue ``action`` behind everything in ``name``'s inbox; what
        it returns is sent as an outbox."""
        self._send(name, _Control(action))

    def _salvage(self, node_id: int):
        """Pairs the node already produced but held while awaiting
        *done* are forwarded to the checking node — their source batches
        were consumed, so redispatch can no longer recreate them.  The
        unread backlog itself is diverted by the node's zombie loop."""
        node = self.computing_nodes[node_id]
        # FIFO barrier: runs after the backlog has been diverted, on the
        # node's own thread — no handler can be mid-flight touching
        # ``_held`` when the salvage reads it.
        self._barrier(f"cn-{node_id}", lambda: self._salvage_held(node))
        return ()

    def _salvage_held(self, node: ComputingNode) -> list:
        held, node._held = node._held, []
        # "publishing" markers die with the node: NodeDown absolves.
        return [
            ("checking", payload)
            for kind, payload in held
            if kind == "batch"
        ]

    # ------------------------------------------------------------------
    # Publications
    # ------------------------------------------------------------------

    def run_publication(self, lines: list[str]) -> None:
        """Ingest ``lines``, close the publication, wait until it drains."""
        self.run_publications_pipelined([lines])

    def run_publications_pipelined(self, batches: list[list[str]]) -> None:
        """Feed several publications back to back *without* waiting for
        each to drain — the asynchronous-publishing mode: publication
        ``n + 1``'s ingestion overlaps publication ``n``'s merging and
        matching.  Blocks only once, after the last batch.
        """
        if not self._started:
            self.start()
        started = WALL_CLOCK.now()
        for lines in batches:
            self._feed(lines)
            self.close_publication()
        self.settle(self.dispatcher.publication - 1, timeout=240.0)
        self.wall_seconds += WALL_CLOCK.now() - started
