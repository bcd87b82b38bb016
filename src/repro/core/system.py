"""The collector driver, and its synchronous in-process form.

:class:`FresqueSystem` is the one driver of a FRESQUE collector.  It
alone builds the components (dispatcher, computing nodes, checking node,
merger, cloud adapter) and their seed chain, it alone routes a message
to a component (``handlers[destination](message)``), and it alone
defines the dispatcher-facing surface: ``start``, ``ingest``, ``offer``,
``pump_dummies``, ``close_publication``, the elastic-membership calls
and ``run_publication``, over one lock and one ``_send_all(outbox)``.

Run as is, it delivers every message in place through a FIFO queue until
quiescence — the *functional* reference: exactly the logic the runtimes
and the discrete-event simulator run, without concurrency or timing, so
tests can assert end-to-end correctness deterministically.  The runtimes
(threaded, TCP, shared memory) subclass it and supply only what differs
per transport — how one message leaves (:meth:`FresqueSystem._send`),
how to wait for a publication to drain (:meth:`FresqueSystem.settle`),
and how a node is spawned, killed, salvaged and brought back; the list
is "What a runtime supplies" in docs/RUNTIMES.md.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.client.query_client import ClientResult, QueryClient
from repro.cloud.node import FresqueCloud
from repro.core.checking import CheckingNode
from repro.core.computing_node import ComputingNode
from repro.core.config import FresqueConfig
from repro.core.dispatcher import Dispatcher
from repro.core.merger import Merger
from repro.core.messages import (
    AnnouncePublication,
    BufferFlush,
    MergedPublication,
    RawBatch,
    Routed,
    ToCloudBatch,
)
from repro.crypto.cipher import RecordCipher
from repro.records.record import EncryptedRecord
from repro.telemetry.clock import WALL_CLOCK
from repro.telemetry.context import coalesce


class CloudAdapter(Routed):
    """Adapts the protocol messages onto :class:`FresqueCloud` calls.

    Receipt arrival is signalled through a :class:`threading.Condition`
    so a driver thread can block in :meth:`wait_for_receipt` instead of
    busy-polling :attr:`receipts`.
    """

    ROUTES = {
        AnnouncePublication: "_announce",
        ToCloudBatch: "_receive_pairs",
        BufferFlush: "_receive_pairs",
        MergedPublication: "_publish",
    }

    def __init__(self, cloud: FresqueCloud):
        self.cloud = cloud
        self.receipts = []
        self._receipts_cond = threading.Condition()

    def _announce(self, message: AnnouncePublication) -> list:
        self.cloud.announce_publication(message.publication)
        return []

    def _receive_pairs(self, message: ToCloudBatch | BufferFlush) -> list:
        publication = message.publication
        self.cloud.receive_pairs(publication, message.leaves, message.ciphertexts)
        return []

    def _publish(self, message: MergedPublication) -> list:
        self._deliver_receipt(
            self.cloud.receive_publication(
                message.publication, message.tree, message.overflow
            )
        )
        return []

    def _deliver_receipt(self, receipt) -> None:
        with self._receipts_cond:
            self.receipts.append(receipt)
            self._receipts_cond.notify_all()

    def receipt_for(self, publication: int):
        """The matching receipt of ``publication``, or ``None``."""
        with self._receipts_cond:
            return next(
                (r for r in self.receipts if r.publication == publication),
                None,
            )

    def wait_for_receipt(self, publication: int, timeout: float):
        """Block until ``publication``'s receipt arrives (or ``timeout``
        elapses — returns ``None``).  Wakes promptly on delivery; no
        polling."""
        deadline = WALL_CLOCK.now() + timeout
        with self._receipts_cond:
            while True:
                receipt = next(
                    (
                        r
                        for r in self.receipts
                        if r.publication == publication
                    ),
                    None,
                )
                if receipt is not None:
                    return receipt
                remaining = deadline - WALL_CLOCK.now()
                if remaining <= 0:
                    return None
                self._receipts_cond.wait(remaining)


class CollectorAwareQueryTarget:
    """Query facade covering the cloud *and* the trusted collector.

    Section 5.3(c): records matching a query that currently sit at the
    cloud, in the randomer buffer, or at the merger (removed records) are
    all returned to the client.  This facade extends the cloud's result
    with the collector-resident ciphertexts, looked up by the leaves the
    query overlaps — its cost is those leaves plus what it returns, not
    the size of the buffers.
    """

    def __init__(self, cloud: FresqueCloud, checking, merger):
        self._cloud = cloud
        self._checking = checking
        self._merger = merger

    def query(self, query):
        from repro.cloud.query_engine import QueryResult

        base = self._cloud.query(query)
        leaves = self._cloud.domain.leaves_overlapping(query.low, query.high)
        extra = self._checking.buffered_in(leaves)
        extra += self._merger.removed_in(leaves)
        return QueryResult(
            indexed=base.indexed,
            overflow=base.overflow,
            unindexed=base.unindexed + tuple(extra),
            nodes_visited=base.nodes_visited,
        )


@dataclass(frozen=True)
class PublicationSummary:
    """Statistics of one completed FRESQUE publication."""

    publication: int
    real_records: int
    dummies: int
    removed: int
    published_pairs: int




class FresqueSystem:
    """A complete FRESQUE collector; as is, a single-process deployment.

    Parameters
    ----------
    config:
        Deployment configuration.
    cipher:
        Record cipher shared between collector and client.
    seed:
        Seed for all randomness (noise, randomer, dummy values).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` shared by every
        component; when omitted telemetry is disabled (null facade).
    cloud:
        Pre-built cloud node to drive instead of a fresh in-memory
        :class:`FresqueCloud` — e.g. one backed by a durable
        :class:`~repro.cloud.filestore.FileBackedStore`, or the
        surviving cloud of a crashed collector during recovery.
    """

    #: Time source handed to the dispatcher (``None``: telemetry or wall
    #: clock) and the fault plan consulted once per sent message.  The
    #: runtimes that take them as constructor arguments set them before
    #: building the base.
    _clock = None
    _fault_plan = None

    def __init__(
        self,
        config: FresqueConfig,
        cipher: RecordCipher,
        seed: int | None = None,
        telemetry=None,
        cloud: FresqueCloud | None = None,
    ):
        self.config = config
        self.cipher = cipher
        self.telemetry = coalesce(telemetry)
        rng = random.Random(seed)
        self.dispatcher = Dispatcher(
            config,
            rng=random.Random(rng.random()),
            telemetry=telemetry,
            clock=self._clock,
        )
        #: Destination name → handler ("message in, outbox out"): the
        #: route of every message, on every transport.
        self._handlers = {"dispatcher": self.dispatcher.handle}
        self.computing_nodes: list[ComputingNode] = []
        # Keyed by node id: elastic membership can admit ids past the
        # initial fleet and replace crashed incarnations.
        self._nodes: dict[int, ComputingNode] = {}
        self._build_components(rng, cloud)
        self._queue: deque[tuple[str, object]] = deque()
        #: Names of the computing nodes the driver degraded around.
        self._dead: set[str] = set()
        # The dispatcher is not thread-safe, and on the concurrent
        # runtimes three threads reach it: the feeder, the flush poller
        # and whichever thread delivers credit grants.  One lock
        # serialises them — reentrant, because a send can fail into the
        # degraded path, which sends again.
        self._lock = threading.RLock()
        self._started = False

    def _build_components(self, rng: random.Random, cloud) -> None:
        """Build everything behind the dispatcher and register it under
        its destination name.

        ``rng`` has already given the dispatcher its seed; the checking
        node's and then the merger's are drawn here, in that order —
        every equivalence fingerprint depends on this chain.
        """
        config, telemetry = self.config, self.telemetry
        for node_id in range(config.num_computing_nodes):
            self._install_node(node_id)
        self.checking = CheckingNode(
            config, rng=random.Random(rng.random()), telemetry=telemetry
        )
        self.merger = Merger(
            config,
            self.cipher,
            rng=random.Random(rng.random()),
            telemetry=telemetry,
        )
        self.cloud = (
            cloud
            if cloud is not None
            else FresqueCloud(config.domain, telemetry=telemetry)
        )
        self._cloud_adapter = CloudAdapter(self.cloud)
        self._handlers["checking"] = self.checking.handle
        self._handlers["merger"] = self.merger.handle
        self._handlers["cloud"] = self._cloud_adapter.handle

    def _new_node(self, node_id: int) -> ComputingNode:
        return ComputingNode(
            node_id, self.config, self.cipher, telemetry=self.telemetry
        )

    def _install_node(self, node_id: int) -> ComputingNode:
        """Build computing node ``node_id`` and register it, in place of
        a previous incarnation of the same id if there was one."""
        node = self._new_node(node_id)
        previous = self._nodes.get(node_id)
        if previous is None:
            self.computing_nodes.append(node)
        else:
            self.computing_nodes[self.computing_nodes.index(previous)] = node
        self._nodes[node_id] = node
        self._handlers[f"cn-{node_id}"] = node.handle
        return node

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _send_all(self, outbox: list[tuple[str, object]]) -> None:
        """Deliver ``outbox`` in order — the driver's single send path.

        In process, every message is handled on the spot and what its
        handler emits queues up behind everything already waiting, until
        nothing is left: the driver is quiescent whenever this returns.
        """
        queue = self._queue
        queue.extend(outbox)
        while queue:
            destination, message = queue.popleft()
            queue.extend(self._handlers[destination](message))

    def _transmit_all(self, outbox) -> None:
        """The :meth:`_send_all` of a runtime with real channels (each
        aliases it): every message leaves through the transport's
        :meth:`_send`, after the fault plan has had its say.  A message
        for a computing node that is gone takes the degraded path."""
        plan = self._fault_plan
        for destination, message in outbox:
            copies = 1
            if plan is not None:
                decision = plan.on_send(destination)
                if decision.faulted:
                    if decision.delay > 0:
                        time.sleep(decision.delay)
                    if decision.drop:
                        continue
                    copies += decision.duplicates
            for _ in range(copies):
                if destination in self._dead or not self._send(
                    destination, message
                ):
                    self._degrade(destination, message)
                    break

    def _send(self, destination: str, message) -> bool:
        """Transport seam: hand one message to ``destination``.

        ``False`` means the destination is a computing node that is
        gone, and the driver degrades around it; a trusted node
        (checking, merger, cloud) that is gone is an error to raise.
        """
        raise NotImplementedError

    def _degrade(self, destination: str, message) -> None:
        """The degraded-send rule: ``destination`` is a dead computing
        node.  It leaves the rotation, records shift to the survivors
        (shared-nothing makes that safe), and control traffic is
        dropped — the :class:`NodeDown` notice stands in for the dead
        node's acknowledgements."""
        with self._lock:
            self._node_down(int(destination[3:]))
            self._redispatch((message,))

    def _redispatch(self, messages) -> None:
        """Re-route the record-carrying ones among ``messages``, which
        a dead computing node never processed, to the survivors."""
        with self._lock:
            for message in messages:
                if isinstance(message, RawBatch):
                    self._send_all(self.dispatcher.redispatch(message))

    def _handle_dispatcher(self, message) -> list:
        """Handler of the ``dispatcher`` address where its messages
        arrive on a thread of their own: the dispatcher is applied under
        the lock, and whatever a credit grant releases leaves through
        the driver's send path, not the delivering thread's."""
        with self._lock:
            self._send_all(self.dispatcher.handle(message))
        return []

    def _thread_handlers(self) -> None:
        """Ready the handler table for nodes that run concurrently.

        Dispatcher-bound messages take the lock
        (:meth:`_handle_dispatcher`).  Under deterministic IVs the
        checking node is fronted by the membership-aware ordering gate,
        which makes the final cloud state byte-identical to the
        synchronous system's even with crashes and rejoins interleaving
        arrivals (docs/PROTOCOL.md).
        """
        from repro.runtime.gate import CheckingGate

        self._handlers["dispatcher"] = self._handle_dispatcher
        if self.config.deterministic_ivs:
            self._checking_gate = CheckingGate(
                self.checking.handle, self.config.num_computing_nodes
            )
            self._handlers["checking"] = self._checking_gate.feed

    # ------------------------------------------------------------------
    # Transport seams (no-ops in process)
    # ------------------------------------------------------------------

    def _spawn(self) -> None:
        """Bring up whatever runs the nodes (threads, servers, worker
        processes) and the flush poller."""

    def settle(self, publication: int, timeout: float = 120.0) -> None:
        """Block until ``publication`` has drained to the cloud.

        No-op here: the synchronous driver is always quiescent.
        """

    def _supervise(self) -> None:
        """Notice nodes that died (degrading around computing nodes)
        and raise the failures that cannot be degraded around."""

    def _queue_depth(self) -> int:
        """Deepest computing-node backlog, for the adaptive controller."""
        return 0

    def _kill_node(self, node_id: int) -> None:
        """Make computing node ``node_id`` actually stop (crash drill)."""

    def _salvage(self, node_id: int):
        """The messages a dead computing node left unread.  Called once
        it is out of the rotation; the driver redispatches the records
        among them after the :class:`NodeDown` notice."""
        return ()

    def _start_node(self, node_id: int) -> None:
        """Bring up a fresh incarnation of computing node ``node_id``
        (an admitted node, or a crashed one rejoining)."""
        self._install_node(node_id)

    def shutdown(self) -> None:
        """Stop everything :meth:`_spawn` started."""

    # ------------------------------------------------------------------
    # Publication boundary
    # ------------------------------------------------------------------

    def _open_publication(self) -> None:
        """Boundary hook: open the next publication (lock held)."""
        self._send_all(self.dispatcher.start_publication())

    def _end_publication(self) -> None:
        """Boundary hook: close the current publication (lock held)."""
        self._send_all(self.dispatcher.end_publication())

    def _receipt(self, publication: int):
        """The cloud's receipt for ``publication`` as this driver sees
        it; ``None`` until the publication is matched."""
        return self._cloud_adapter.receipt_for(publication)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bring the nodes up and open the first publication."""
        if self._started:
            raise RuntimeError("already started")
        self._started = True
        self._spawn()
        with self._lock:
            self._open_publication()

    def __enter__(self):
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def ingest(self, line: str) -> None:
        """Feed one raw line into the current publication.

        With ``config.batch_size > 1`` the line may sit in the
        dispatcher's in-flight batch until a flush triggers (size, delay
        or interval close); :meth:`flush_ingest` forces it through.
        """
        if not self._started:
            raise RuntimeError("call start() first")
        with self._lock:
            self._send_all(self.dispatcher.on_raw(line))

    def ingest_batch(self, lines: list[str]) -> None:
        """Feed many raw lines into the current publication, in order."""
        ingest = self.ingest
        for line in lines:
            ingest(line)

    def offer(self, line: str) -> bool:
        """Admission-controlled :meth:`ingest`; False means shed.

        With ``config.ingest_queue_limit`` set, the dispatcher's
        :class:`~repro.core.flow.SheddingPolicy` may reject the line (or
        evict an older unflushed record to admit it) instead of letting
        the backlog grow without bound.
        """
        if not self._started:
            raise RuntimeError("call start() first")
        with self._lock:
            if not self.dispatcher.admit():
                return False
            self.ingest(line)
        return True

    def flush_ingest(self) -> None:
        """Flush the dispatcher's in-flight batch through the pipeline."""
        with self._lock:
            self._send_all(self.dispatcher.flush_batch())

    def _poll_flush(self) -> None:
        """One flush-poller tick: sample the computing nodes' backlog
        for the adaptive controller (pinned deployments never read it)
        and fire the delay flush if the in-flight batch outlived its
        bound."""
        with self._lock:
            dispatcher = self.dispatcher
            if self.telemetry.enabled or not dispatcher.flow.controller.pinned:
                dispatcher.observe_queue_depth(self._queue_depth())
            self._send_all(dispatcher.flush_due())

    def poll_flush(self) -> None:
        """Fire the delay flush if the in-flight batch outlived its bound.

        The runtimes run a :class:`~repro.runtime.poller.FlushPoller`
        thread on this; drivers of the synchronous system with idle
        periods call it periodically, so a trickle below the batch size
        never stalls past ``max_batch_delay``.
        """
        self._poll_flush()

    def pump_dummies(self, fraction: float) -> None:
        """Release every dummy scheduled before ``fraction`` of the
        interval (how :meth:`run_publication` and the chaos harness pace
        dummies between ingests)."""
        with self._lock:
            self._send_all(self.dispatcher.due_dummies(fraction))

    def close_publication(self) -> None:
        """Close the current publication and open the next one."""
        with self._lock:
            self._end_publication()
            self._open_publication()

    def finish_publication(self, timeout: float = 120.0):
        """Close the current publication, open the next one and wait
        for the closed one to drain (:meth:`settle`).

        Returns its cloud receipt (``None`` if the publication could
        not complete, e.g. under injected faults).
        """
        publication = self.dispatcher.publication
        self.close_publication()
        self.settle(publication, timeout)
        return self._receipt(publication)

    def _feed(self, lines: list[str]) -> None:
        """Ingest ``lines`` into the current publication (starting the
        driver if need be), the scheduled dummies interleaved uniformly."""
        if not self._started:
            self.start()
        pump_dummies, ingest = self.pump_dummies, self.ingest
        total = max(1, len(lines))
        for position, line in enumerate(lines):
            pump_dummies((position + 1) / (total + 1))
            ingest(line)

    def run_publication(self, lines: list[str]) -> PublicationSummary:
        """Ingest ``lines``, interleave the scheduled dummies uniformly,
        close the publication and open the next one.

        Returns a summary of what was published.
        """
        dummies_before = self.checking.dummies_passed
        removed_before = self.checking.records_removed
        self._feed(lines)
        receipt = self.finish_publication()
        return PublicationSummary(
            publication=receipt.publication,
            real_records=len(lines),
            dummies=self.checking.dummies_passed - dummies_before,
            removed=self.checking.records_removed - removed_before,
            published_pairs=receipt.records_matched,
        )

    # ------------------------------------------------------------------
    # Elastic membership (docs/PROTOCOL.md)
    # ------------------------------------------------------------------

    @property
    def dead_nodes(self) -> frozenset[str]:
        """Names of computing nodes the driver degraded around."""
        return frozenset(self._dead)

    def admit_node(self, node_id: int | None = None) -> int:
        """Admit a new computing node into the live fleet.

        Flushes the in-flight batch under the old epoch, brings the node
        up, rebuilds the dispatch rotation and broadcasts the membership
        snapshot.  Returns the admitted node's id.
        """
        if not self._started:
            raise RuntimeError("call start() first")
        with self._lock:
            node_id, outbox = self.dispatcher.admit_node(node_id)
            self._start_node(node_id)
            self._send_all(outbox)
        return node_id

    def retire_node(self, node_id: int) -> None:
        """Gracefully drain ``node_id`` out of the dispatch rotation.

        The node stays reachable until the current publication closes
        (it still reports *publishing* and receives *done*); it simply
        receives no further batches.
        """
        with self._lock:
            self._send_all(self.dispatcher.retire_node(node_id))

    def crash_node(self, node_id: int) -> None:
        """Crash a computing node and degrade around it.

        The dispatcher takes it out of rotation, the checking node hears
        :class:`NodeDown` and stops waiting for its reports, and what it
        left unread is redispatched to the survivors.  (The synchronous
        driver pumps to quiescence between ingests, so it has no backlog
        to lose.)
        """
        self._kill_node(node_id)
        self._node_down(node_id)

    def _node_down(self, node_id: int) -> None:
        """Degrade around dead computing node ``node_id`` (idempotent).

        Ordering matters: the node leaves the rotation *first* (so
        redispatch never routes back to it), and the checking node hears
        :class:`NodeDown` *before* the redispatched backlog.  Messages
        are redispatched as the same objects — never re-stamped — so
        their seq/ordinal/IV stamps survive and churn stays
        byte-invisible.
        """
        with self._lock:
            notice = self.dispatcher.mark_node_down(node_id)
            if not notice:
                return
            self._dead.add(f"cn-{node_id}")
            backlog = self._salvage(node_id)
            self._send_all(notice)
            self._redispatch(backlog)

    def rejoin_node(self, node_id: int) -> int:
        """Bring a crashed node back as a fresh incarnation.

        The replacement starts from empty state under a new epoch; the
        membership broadcast raises its join-epoch floor, so any
        straggler output of the dead incarnation is discarded.  On the
        TCP runtime, only call once the surrounding publication has
        completed — the cloud receipt guarantees the checking node has
        consumed every frame the old incarnation sent.
        """
        self._supervise()
        if self.dispatcher.membership.state_of(node_id) != "down":
            raise ValueError(f"node {node_id} is not down")
        self._start_node(node_id)
        with self._lock:
            self._dead.discard(f"cn-{node_id}")
            self._send_all(self.dispatcher.rejoin_node(node_id))
        return node_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def make_client(self, schema=None) -> QueryClient:
        """A query client bound to this deployment.

        Queries cover the cloud plus the collector-resident records (the
        randomer buffer and the merger's removed records, Section 5.3(c));
        on a concurrent runtime only call it between publications, once
        quiescent.
        """
        return QueryClient(
            schema if schema is not None else self.config.schema,
            self.cipher,
            CollectorAwareQueryTarget(self.cloud, self.checking, self.merger),
        )

    def query(self, low: float, high: float) -> ClientResult:
        """Convenience end-to-end range query."""
        return self.make_client().range_query(low, high)

    @property
    def unpublished_pairs(self) -> list[tuple[int, EncryptedRecord]]:
        """Pairs of the in-flight publication already at the cloud."""
        return self.cloud.engine.in_flight_pairs()
