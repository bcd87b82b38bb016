"""The collector driver, and its synchronous in-process form.

:class:`FresqueSystem` is the one driver of a FRESQUE collector.  It
alone builds the components (dispatcher, computing nodes, checking node,
merger, cloud adapter) and their seed chain, it alone routes a message
to a component (``handlers[destination](message)``), and it alone
defines the dispatcher-facing surface: ``start``, ``ingest``,
``ingest_batch``, ``pump_dummies``, ``close_publication``, ``crash_node``
and ``run_publication``, over one lock and one ``_send_all(outbox)``.
``ingest_batch`` and ``run_publication`` hand the dispatcher whole runs
of lines (:meth:`~repro.core.dispatcher.Dispatcher.on_run`), not one
line per call.

Run as is, it delivers every message in place through a FIFO queue until
quiescence — the *functional* reference: exactly the logic the runtimes
and the discrete-event simulator run, without concurrency or timing, so
tests can assert end-to-end correctness deterministically.  The runtimes
(scheduled, TCP) subclass it and supply only what differs
per transport — how a run of messages to one destination leaves
(:meth:`FresqueSystem._send`),
how to wait for a publication to drain (:meth:`FresqueSystem.settle`),
and how a node is spawned and killed; the list is "What a runtime
supplies" in docs/RUNTIMES.md.  The fleet is fixed, as in the paper:
``config.num_computing_nodes`` computing nodes, of which a crash can
only take some away (degraded mode, docs/PROTOCOL.md).
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

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
    Routed,
    ToCloudBatch,
)
from repro.crypto.cipher import RecordCipher
from repro.telemetry.context import coalesce


_DESTINATION = itemgetter(0)


class CloudAdapter(Routed):
    """Adapts the protocol messages onto :class:`FresqueCloud` calls.

    Receipts and announcements are signalled through a
    :class:`threading.Condition`, so a driver thread can block in
    :meth:`wait_for_receipt` or :meth:`wait_for_announce` instead of
    polling.
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
        self._cond = threading.Condition()

    def _announce(self, message: AnnouncePublication) -> list:
        with self._cond:
            self.cloud.announce_publication(message.publication)
            self._cond.notify_all()
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
        with self._cond:
            self.receipts.append(receipt)
            self._cond.notify_all()

    def _find_receipt(self, publication: int):
        return next(
            (r for r in self.receipts if r.publication == publication), None
        )

    def receipt_for(self, publication: int):
        """The matching receipt of ``publication``, or ``None``."""
        with self._cond:
            return self._find_receipt(publication)

    def wait_for_receipt(self, publication: int, timeout: float):
        """Block until ``publication``'s receipt arrives (or ``timeout``
        elapses — returns ``None``).  Wakes promptly on delivery; no
        polling."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._find_receipt(publication), timeout
            )

    def wait_for_announce(self, publication: int, timeout: float) -> bool:
        """Block until the cloud has announced ``publication`` (or
        ``timeout`` elapses — returns ``False``).  Wakes promptly on the
        announcement; no polling."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self.cloud.is_announced(publication), timeout
            )


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
            unindexed=(*base.unindexed, *extra),
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
        Pre-built cloud node to drive instead of a fresh one — the
        surviving cloud of a crashed collector during recovery.
    """

    #: Time source handed to the dispatcher (``None``: telemetry or wall
    #: clock).  A runtime that takes one as a constructor argument sets
    #: it before building the base.
    _clock = None

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
        self._handlers: dict[str, object] = {}
        #: Indexed by node id.
        self.computing_nodes: list[ComputingNode] = []
        self._build_components(rng, cloud)
        self._queue: deque[tuple[str, object]] = deque()
        #: Names of the computing nodes the driver degraded around.
        self._dead: set[str] = set()
        # The dispatcher is not thread-safe, and on the TCP runtime the
        # feeder and the flush poller both drive it (and a
        # node thread whose send finds a computing node gone reroutes
        # through it).  One lock serialises them — reentrant, because a
        # send can fail into the degraded path, which sends again.
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
            node = ComputingNode(
                node_id, config, self.cipher, telemetry=telemetry
            )
            self.computing_nodes.append(node)
            self._handlers[f"cn-{node_id}"] = node.handle
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
        self._handlers["dispatcher"] = self._admit

    def _admit(self, message) -> list:
        """The dispatcher's handler (:class:`Admitted` only), under the
        driver lock: on TCP it runs on a node thread."""
        with self._lock:
            return self.dispatcher.handle(message)

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
        aliases it): every run of consecutive messages to one
        destination leaves through one call of the transport's
        :meth:`_send`.  A run for a computing node that is gone takes
        the degraded path."""
        if not outbox:  # most ingests ship nothing; grouping costs more
            return
        for destination, routed in groupby(outbox, _DESTINATION):
            if destination in self._dead or not self._send(
                destination, [message for _, message in routed]
            ):
                self._degrade(destination)

    def _send(self, destination: str, messages: list) -> bool:
        """Transport seam: hand a run of messages to ``destination``, in
        order.

        ``False`` means the destination is a computing node that is
        gone, and the driver degrades around it; a trusted node
        (checking, merger, cloud) that is gone is an error to raise.
        """
        raise NotImplementedError

    def _degrade(self, destination: str) -> None:
        """The degraded-send rule: ``destination`` is a dead computing
        node.  It leaves the rotation, its unadmitted batches are
        re-sent (:meth:`_node_down`) and control traffic is dropped —
        the :class:`NodeDown` notice stands in for its acknowledgements."""
        self._node_down(int(destination[3:]))

    # ------------------------------------------------------------------
    # Transport seams (no-ops in process)
    # ------------------------------------------------------------------

    def _spawn(self) -> None:
        """Bring up whatever runs the nodes (threads, servers) and the
        flush poller."""

    def settle(self, publication: int, timeout: float = 120.0) -> None:
        """Block until ``publication`` has drained to the cloud.

        No-op here: the synchronous driver is always quiescent.
        """

    def _supervise(self) -> None:
        """Notice nodes that died (degrading around computing nodes)
        and raise the failures that cannot be degraded around."""

    def _kill_node(self, node_id: int) -> None:
        """Make computing node ``node_id`` actually stop (crash drill)
        and degrade around it (:meth:`_node_down`) — at once here; a
        runtime may leave that step to its supervision."""
        self._node_down(node_id)

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
        """Feed many raw lines into the current publication, in order:
        one run through the dispatcher, under one lock."""
        if not self._started:
            raise RuntimeError("call start() first")
        self._ingest_chunk(lines)

    def _ingest_chunk(self, lines, fractions=None) -> None:
        """Dispatch ``lines`` as one run (:meth:`Dispatcher.on_run`);
        ``fractions``, their interval positions, pace the dummies."""
        with self._lock:
            self._send_all(self.dispatcher.on_run(lines, fractions))

    def flush_ingest(self) -> None:
        """Flush the dispatcher's in-flight batch through the pipeline."""
        with self._lock:
            self._send_all(self.dispatcher.flush_batch())

    def _poll_flush(self) -> None:
        """One flush-poller tick: fire the delay flush if the in-flight
        batch outlived its bound."""
        with self._lock:
            self._send_all(self.dispatcher.flush_due())

    def poll_flush(self) -> None:
        """Fire the delay flush if the in-flight batch outlived its bound.

        The TCP runtime runs a :class:`~repro.runtime.poller.FlushPoller`
        thread on this; drivers of the in-process runtimes with idle
        periods call it periodically, so a trickle below the batch size
        never stalls past ``max_batch_delay``.
        """
        self._poll_flush()

    def pump_dummies(self, fraction: float) -> None:
        """Release every dummy scheduled before ``fraction`` of the
        interval (how :meth:`run_publication` paces dummies between
        ingests)."""
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
        driver if need be), the scheduled dummies interleaved uniformly:
        ``batch_size``-line runs, each line at interval position
        ``(position + 1) / (len(lines) + 1)``."""
        if not self._started:
            self.start()
        total = max(1, len(lines)) + 1
        fractions = [position / total for position in range(1, len(lines) + 1)]
        size = self.config.batch_size
        for start in range(0, len(lines), size):
            end = start + size
            self._ingest_chunk(lines[start:end], fractions[start:end])

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
    # Degraded mode (docs/PROTOCOL.md)
    # ------------------------------------------------------------------

    @property
    def dead_nodes(self) -> frozenset[str]:
        """Names of computing nodes the driver degraded around."""
        return frozenset(self._dead)

    def crash_node(self, node_id: int) -> None:
        """Crash a computing node and degrade around it.

        The dispatcher takes it out of rotation, the checking node hears
        :class:`NodeDown` and stops waiting for its reports, and the
        batches shipped to it and not yet admitted are re-sent to the
        survivors (:meth:`_node_down`).  An id outside the fleet is a
        ``ValueError`` on every runtime, raised before anything is
        killed.
        """
        if not 0 <= node_id < self.config.num_computing_nodes:
            raise ValueError(f"unknown computing node {node_id}")
        self._kill_node(node_id)

    def _node_down(self, node_id: int) -> None:
        """Degrade around dead computing node ``node_id`` (idempotent).

        Ordering matters: the node leaves the rotation *first* (so
        redispatch never routes back to it), and the checking node hears
        :class:`NodeDown` *before* the re-sent batches: every batch
        shipped to the node and not yet admitted, in seq order, as the
        same objects — so their seq/ordinal/IV stamps survive, the
        checking node drops whichever twin comes second, and a crash
        stays byte-invisible.  Nothing of the dead node is read
        (docs/PROTOCOL.md, "Redispatch").
        """
        with self._lock:
            notice = self.dispatcher.mark_node_down(node_id)
            if not notice:
                return
            self._dead.add(f"cn-{node_id}")
            self._send_all(notice)
            for batch in self.dispatcher.resend(node_id):
                self._send_all(self.dispatcher.redispatch(batch))

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
    def unpublished_pairs(self) -> list[tuple[int, bytes]]:
        """Pairs of the in-flight publication already at the cloud."""
        return self.cloud.engine.in_flight_pairs()
