"""FRESQUE over real TCP sockets.

Each collector node gets its own listening socket on the loopback
interface and exchanges the wire-encoded protocol frames of
:mod:`repro.runtime.wire` — the transport of the paper's deployment, where
"the TCP socket was used for exchanging data among the components"
(Section 7.1).  Every node runs its handler on a dedicated worker thread
(actor-style), but nothing is shared between nodes except bytes on
sockets, so the same code splits across processes or machines by
changing the address book.

Fault tolerance
---------------
The runtime survives transient transport faults instead of timing out:

* :class:`Router` evicts dead cached sockets and reconnects with capped
  exponential backoff + jitter (:class:`RetryPolicy`), raising
  :class:`PeerUnavailable` only once the budget is exhausted;
* :class:`TcpNode` supervises its reader threads (transport failures and
  torn frames are recorded in :attr:`TcpNode.errors`, not swallowed),
  tracks accepted connections so shutdown closes every fd, and reports
  :meth:`TcpNode.health`;
* :class:`TcpFresqueCluster` degrades around a dead computing node —
  the dispatcher re-sends the batches the checking node has not
  admitted to the survivors (shared-nothing makes that safe) and a
  :class:`NodeDown` notice lets the checking node finalise without the
  dead node's report; a missed deadline raises :class:`ClusterTimeout`
  carrying a per-node health report instead of a bare ``TimeoutError``.

Node crashes can be injected deterministically through
:class:`repro.runtime.faults.FaultPlan`.
"""

from __future__ import annotations

import bisect
import queue
import random
import socket
import threading
import time
from dataclasses import dataclass

from repro.client.query_client import QueryClient
from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import RecordCipher
from repro.runtime.poller import FlushPoller, poll_interval
from repro.runtime.wire import WireError, append_frame, decode_message, read_frames
from repro.telemetry.clock import WALL_CLOCK
from repro.telemetry.context import coalesce

_STOP = object()


class TransportError(ConnectionError):
    """A node-side transport failure (reader died, accept loop died)."""


class TornFrame(WireError):
    """A connection closed mid-frame, losing the partial tail.

    Recorded in :attr:`TcpNode.errors` so the loss is visible, but
    recoverable at cluster level: a sender that failed mid-write retries
    the *whole* frame on a fresh connection, so the torn tail on the
    dying connection duplicates nothing and loses nothing.
    """


class PeerUnavailable(ConnectionError):
    """Every reconnect attempt to a destination failed."""

    def __init__(self, destination: str, attempts: int, cause: BaseException):
        super().__init__(
            f"peer {destination!r} unavailable after {attempts} send "
            f"attempts: {cause!r}"
        )
        self.destination = destination
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for :class:`Router` send retries.

    Attempt ``n`` (1-based) that fails sleeps
    ``min(max_delay, base_delay * 2**(n-1))`` scaled by a random jitter
    in ``[1, 1 + jitter]`` before redialing; after ``max_attempts``
    failures the send raises :class:`PeerUnavailable`.
    """

    max_attempts: int = 6
    base_delay: float = 0.02
    max_delay: float = 0.5
    jitter: float = 0.5

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Sleep duration after failed attempt ``attempt`` (1-based)."""
        delay = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return delay * (1.0 + self.jitter * rng.random())


class Router:
    """Outbound connections to every peer, by node name.

    A failed write evicts the dead cached socket (a peer restart or
    broken pipe must not poison the cache forever) and the send is
    retried against a fresh connection under ``retry_policy``.

    Parameters
    ----------
    address_book:
        Node name → loopback port.
    telemetry:
        Optional telemetry; counts frames/bytes, retries, reconnects
        and backoff sleeps.
    retry_policy:
        Reconnect/backoff budget (:class:`RetryPolicy` default).
    seed:
        Seed for the backoff jitter.
    """

    def __init__(
        self,
        address_book: dict[str, int],
        telemetry=None,
        retry_policy: RetryPolicy | None = None,
        seed: int = 0,
    ):
        self._addresses = address_book
        self._connections: dict[str, socket.socket] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._guard = threading.Lock()
        self._retry = retry_policy if retry_policy is not None else RetryPolicy()
        self._rng = random.Random(seed)
        #: Sends that succeeded after at least one failed attempt.
        self.reconnects = 0
        #: Failed attempts that were retried (evict + backoff + redial).
        self.retries = 0
        #: Destination → frames successfully transmitted.
        self.sent_to: dict[str, int] = {}
        tel = coalesce(telemetry)
        self._sent_bytes = tel.counter("tcp_sent_bytes_total")
        self._sent_frames = tel.counter("tcp_sent_frames_total")
        self._retries_counter = tel.counter("tcp_send_retries_total")
        self._reconnects_counter = tel.counter("tcp_reconnects_total")
        self._backoff_histogram = tel.histogram("tcp_backoff_seconds")

    def send(
        self, destination: str, message, run: bytearray | None = None
    ) -> None:
        """Frame one message to ``destination`` and transmit it,
        reconnecting (with backoff) around transport failures.

        Inside :meth:`send_run`, ``run`` is the run's buffer: the frame
        is appended to it and leaves with the rest of the run, so every
        message still passes through here once."""
        if run is None:
            self.send_run(destination, (message,))
        else:
            append_frame(run, destination, message)

    def send_run(self, destination: str, messages) -> None:
        """Frame ``messages`` into one buffer and transmit it to
        ``destination`` as one write: per-link FIFO order holds, and the
        receiver reads the same frames as from one send each."""
        run = bytearray()
        ends = []
        for message in messages:
            self.send(destination, message, run=run)
            ends.append(len(run))
        self._transmit(destination, memoryview(run), ends)
        self._sent_bytes.inc(len(run))
        self._sent_frames.inc(len(ends))
        with self._guard:
            self.sent_to[destination] = (
                self.sent_to.get(destination, 0) + len(ends)
            )

    def _transmit(self, destination: str, run: memoryview, ends) -> None:
        """Write ``run``, whose frames end at ``ends``.  A failed write
        resumes on a fresh connection at the first frame the dying one
        did not take whole: a torn tail is re-sent, never a whole frame."""
        attempt = 0
        done = 0  # bytes of whole frames the socket has taken
        while True:
            attempt += 1
            connection = None
            written = done
            try:
                connection, lock = self._connect(destination)
                with lock:
                    # The per-connection lock exists precisely to serialize
                    # frame writes on this socket, so the blocking send is
                    # intentional.
                    while written < len(run):
                        # fresque-lint: disable=FRQ-C102
                        written += connection.send(run[written:])
            except OSError as exc:
                if connection is not None:
                    self.evict(destination, connection)
                whole = bisect.bisect_right(ends, written)
                done = ends[whole - 1] if whole else 0
                if attempt >= self._retry.max_attempts:
                    raise PeerUnavailable(destination, attempt, exc) from exc
                with self._guard:
                    self.retries += 1
                self._retries_counter.inc()
                delay = self._retry.backoff(attempt, self._rng)
                self._backoff_histogram.observe(delay)
                time.sleep(delay)
                continue
            if attempt > 1:
                with self._guard:
                    self.reconnects += 1
                self._reconnects_counter.inc()
            return

    def _connect(
        self, destination: str
    ) -> tuple[socket.socket, threading.Lock]:
        """The cached connection to ``destination``, dialing if absent."""
        with self._guard:
            connection = self._connections.get(destination)
            lock = self._locks.get(destination)
        if connection is not None:
            return connection, lock
        # Dial outside the guard: a slow connect to one destination
        # must not block every other sender on the shared guard lock.
        dialed = socket.create_connection(
            ("127.0.0.1", self._addresses[destination]), timeout=10
        )
        with self._guard:
            connection = self._connections.get(destination)
            if connection is None:
                connection = dialed
                self._connections[destination] = connection
            lock = self._locks.setdefault(destination, threading.Lock())
        if connection is not dialed:
            # Another sender won the dial race; drop the spare socket.
            try:
                dialed.close()
            except OSError:
                pass
        return connection, lock

    def evict(
        self, destination: str, connection: socket.socket | None = None
    ) -> None:
        """Drop the cached socket to ``destination`` (dead-peer
        eviction).  With ``connection`` given, evict only if it is still
        the cached one — a racing sender may already have redialed."""
        with self._guard:
            cached = self._connections.get(destination)
            if cached is None:
                return
            if connection is not None and cached is not connection:
                return
            del self._connections[destination]
        try:
            cached.close()
        except OSError:
            pass

    def close(self) -> None:
        """Tear down every outbound connection."""
        with self._guard:
            for connection in self._connections.values():
                try:
                    connection.close()
                except OSError:
                    pass
            self._connections.clear()


class TcpNode:
    """One listening node: socket server + actor worker thread.

    Parameters
    ----------
    name:
        The node's protocol address.
    handler:
        Callable handling one message and returning routed outbox pairs.
    send_all:
        Callable taking an outbox: the cluster's send path, which
        degrades around a dead computing node.  The worker handles every
        frame queued when it wakes, in arrival order, and then hands it
        their outboxes joined, so each run of messages to one
        destination leaves in one write.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; counts received
        bytes and tracks the inbox depth per node.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` consulted once
        per inbox frame (node crash injection).  A crash in the middle of
        a drain sends the outputs of the frames handled before it and
        drops the rest, as if each frame's outputs had left on its own.

    Supervision: reader-thread failures and torn frames are recorded in
    :attr:`errors` (surfaced by the driver), accepted connections are
    tracked and closed on :meth:`stop`, and :meth:`health` reports a
    heartbeat snapshot.
    """

    def __init__(
        self, name: str, handler, send_all, telemetry=None,
        fault_plan=None,
    ):
        self.name = name
        self.handler = handler
        self.send_all = send_all
        self._tel = coalesce(telemetry)
        self._recv_bytes = self._tel.counter(
            "tcp_recv_bytes_total", node=name
        )
        self._depth_gauge = self._tel.gauge("tcp_inbox_depth", node=name)
        self._fault_plan = fault_plan
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind(("127.0.0.1", 0))  # a free ephemeral port
        self._server.listen(32)
        self.port = self._server.getsockname()[1]
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        #: Frames the worker took from the inbox whose outputs have not
        #: left yet.
        self._in_hand = 0
        self._acceptor: threading.Thread | None = None
        self._worker: threading.Thread | None = None
        self._readers: list[threading.Thread] = []
        self._connections: list[socket.socket] = []
        self._running = False
        self._closing = False
        self.crashed = False
        #: Frames a crash discarded from the inbox, unread.
        self.dropped_frames = 0
        self.errors: list[BaseException] = []
        self._lock = threading.Lock()
        self._handled = 0
        self._last_seen = 0.0

    @property
    def handled(self) -> int:
        """Frames fully processed by the worker thread: handled, and
        their drain's outputs sent."""
        with self._lock:
            return self._handled

    def start(self) -> None:
        """Spawn the acceptor and worker threads."""
        self._running = True
        acceptor = threading.Thread(
            target=self._accept_loop,
            name=f"tcp-accept-{self.name}", daemon=True,
        )
        worker = threading.Thread(
            target=self._worker_loop, name=f"tcp-worker-{self.name}",
            daemon=True,
        )
        self._acceptor = acceptor
        self._worker = worker
        acceptor.start()
        worker.start()

    def _record_error(self, error: BaseException) -> None:
        self.errors.append(error)

    def _accept_loop(self) -> None:
        while True:
            try:
                connection, _ = self._server.accept()
            except OSError as exc:
                if self._running and not self._closing:
                    self._record_error(
                        TransportError(
                            f"{self.name}: accept loop failed: {exc!r}"
                        )
                    )
                return
            reader = threading.Thread(
                target=self._read_loop,
                args=(connection,),
                name=f"tcp-read-{self.name}",
                daemon=True,
            )
            with self._lock:
                registered = self._running
                if registered:
                    # Started under the lock: a crash or stop that
                    # copies the reader list must never join a reader
                    # that has not started.
                    self._connections.append(connection)
                    self._readers.append(reader)
                    reader.start()
            if not registered:
                # stop() raced us; it already closed everything it knew
                # about, so this late connection is ours to close.
                try:
                    connection.close()
                except OSError:
                    pass
                return

    def _read_loop(self, connection: socket.socket) -> None:
        buffer = bytearray()
        while True:
            try:
                chunk = connection.recv(65536)
            except OSError as exc:
                if self._running and not self._closing:
                    self._record_error(
                        TransportError(
                            f"{self.name}: reader failed: {exc!r}"
                        )
                    )
                return
            if not chunk:
                if buffer and self._running and not self._closing:
                    self._record_error(
                        TornFrame(
                            f"{self.name}: peer closed mid-frame, "
                            f"dropping {len(buffer)} bytes of a partial "
                            f"frame"
                        )
                    )
                return
            buffer.extend(chunk)
            self._recv_bytes.inc(len(chunk))
            try:
                for frame in read_frames(buffer):
                    self._inbox.put(frame)
            except WireError as exc:
                self._record_error(exc)
                return
            if self._tel.enabled:
                self._depth_gauge.set(self._inbox.qsize())

    def _worker_loop(self) -> None:
        inbox = self._inbox
        while True:
            frames = [inbox.get()]
            # The worker is the inbox's one consumer, so every frame
            # counted is there to take: the whole backlog, in order.
            frames += [inbox.get_nowait() for _ in range(inbox.qsize())]
            with self._lock:
                self._in_hand = len(frames)
            if self._drain(frames):
                return

    def _drain(self, frames: list) -> bool:
        """Handle ``frames`` in arrival order, then send what they
        emitted as one outbox: each run of messages to one destination
        leaves in one write.  Returns ``True`` when the worker is to
        stop — on :data:`_STOP`, or on a crash, which comes before the
        next frame: the outputs of the frames handled go out, and the
        frames not handled are dropped."""
        outbox: list = []
        handled = 0
        crash_at = None
        stop = False
        for index, item in enumerate(frames):
            if item is _STOP:
                stop = True
                break
            if self.crashed or (
                self._fault_plan is not None
                and self._fault_plan.on_node_frame(self.name) is not None
            ):
                crash_at = index
                break
            try:
                destination, message = decode_message(item)
                if destination != self.name:
                    raise ValueError(
                        f"frame for {destination!r} delivered to {self.name!r}"
                    )
                outbox += self.handler(message)
                handled += 1
            except BaseException as exc:  # surfaced by the driver
                self.errors.append(exc)
        try:
            if outbox:
                self.send_all(outbox)
        except BaseException as exc:  # surfaced by the driver
            self.errors.append(exc)
            handled = 0
        with self._lock:
            self._handled += handled
            self._in_hand = 0
            self._last_seen = WALL_CLOCK.now()
        if crash_at is None:
            return stop
        self._enact_crash(sum(item is not _STOP for item in frames[crash_at:]))
        return True

    def _enact_crash(self, unread: int) -> None:
        """Fault injection: die like a crashed machine.

        Closes the server and every accepted connection (peers see the
        node go away) and discards the ``unread`` frames the worker took
        and did not handle and the rest of the inbox, counting them in
        :attr:`dropped_frames`.  The node stays dead.  Enacting it again
        (the worker, after a driver-side :meth:`crash`) only counts.
        """
        with self._lock:
            self.crashed = True
            self._closing = True
            self._running = False
            connections = list(self._connections)
            self._connections.clear()
            readers = list(self._readers)
            self._readers.clear()
        self._shutdown_socket(self._server)
        for connection in connections:
            self._shutdown_socket(connection)
        for reader in readers:
            reader.join(timeout=2)
        dropped = unread
        while True:
            try:
                item = self._inbox.get_nowait()
            except queue.Empty:
                break
            dropped += item is not _STOP
        with self._lock:
            self.dropped_frames += dropped

    def crash(self) -> None:
        """Driver-side crash injection: same effect as a fault-plan
        crash, enacted from outside the worker thread.  Returns once
        the worker has stopped."""
        self._enact_crash(0)
        self._inbox.put(_STOP)
        if self._worker is not None:
            self._worker.join(timeout=5)

    @staticmethod
    def _shutdown_socket(sock: socket.socket) -> None:
        try:
            # shutdown() wakes a thread blocked in accept()/recv();
            # close() alone can leave it hanging until traffic arrives.
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    @property
    def pending(self) -> int:
        """Frames queued, or taken by the worker and not yet handled
        (a frame is handled once its drain's outputs have left)."""
        return self._inbox.qsize() + self._in_hand

    def health(self) -> dict:
        """Heartbeat snapshot for supervision and timeout reports."""
        with self._lock:
            handled = self._handled
            last_seen = self._last_seen
            dropped = self.dropped_frames
        worker = self._worker
        return {
            "name": self.name,
            "alive": (
                worker is not None and worker.is_alive() and not self.crashed
            ),
            "crashed": self.crashed,
            "handled": handled,
            "pending": self.pending,
            "dropped_frames": dropped,
            "errors": len(self.errors),
            "last_seen": last_seen,
        }

    def stop(self) -> None:
        """Shut the node down: close the server and every accepted
        connection, then join the acceptor, worker and reader threads."""
        with self._lock:
            self._closing = True
            self._running = False
            connections = list(self._connections)
            self._connections.clear()
            readers = list(self._readers)
            self._readers.clear()
        self._shutdown_socket(self._server)
        for connection in connections:
            self._shutdown_socket(connection)
        self._inbox.put(_STOP)
        for thread in (self._acceptor, self._worker, *readers):
            if thread is not None and thread.is_alive():
                thread.join(timeout=2)


class ClusterTimeout(TimeoutError):
    """A publication missed its deadline.

    Carries :attr:`health_report` (per-node heartbeat snapshots, router
    retry/reconnect totals, the degraded-mode dead set, the messages the
    checking node holds, the seq it awaits and the dispatcher's oldest
    unadmitted seq) and renders it in the message, so the failure is
    diagnosable instead of a bare ``TimeoutError``.
    """

    def __init__(self, publication: int, timeout: float, report: dict):
        self.publication = publication
        self.health_report = report
        lines = [
            f"publication {publication} never matched within {timeout:.1f}s"
        ]
        for entry in report.get("nodes", ()):
            lines.append(
                "  {name}: alive={alive} crashed={crashed} "
                "handled={handled} pending={pending} "
                "dropped={dropped_frames} errors={errors}".format(**entry)
            )
        router = report.get("router", {})
        if router:
            lines.append(
                "  router: retries={retries} "
                "reconnects={reconnects}".format(**router)
            )
        dead = report.get("dead_nodes")
        if dead:
            lines.append(f"  degraded around dead nodes: {sorted(dead)}")
        if "next_seq" in report:
            lines.append(
                "  the checking node holds {held} messages and awaits "
                "seq {next_seq}; oldest unadmitted seq "
                "{oldest_unadmitted}".format(**report)
            )
        super().__init__("\n".join(lines))


class TcpFresqueCluster(FresqueSystem):
    """A FRESQUE deployment where every hop crosses a real TCP socket.

    The collector driver (:class:`~repro.core.system.FresqueSystem`)
    over sockets: the dispatcher runs on the driver thread (it is the
    cluster's entry point); computing nodes, the checking node, the
    merger and the cloud are :class:`TcpNode` servers reachable only
    through their sockets.

    Parameters
    ----------
    config, cipher, seed, telemetry:
        As for :class:`~repro.core.system.FresqueSystem`.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` wired into
        every node (node crashes).
    retry_policy:
        Router reconnect budget (:class:`RetryPolicy` default).
    """

    def __init__(
        self,
        config: FresqueConfig,
        cipher: RecordCipher,
        seed: int | None = None,
        telemetry=None,
        fault_plan=None,
        retry_policy: RetryPolicy | None = None,
    ):
        super().__init__(config, cipher, seed=seed, telemetry=telemetry)
        self._fault_plan = fault_plan
        self._address_book: dict[str, int] = {}
        self.router = Router(
            self._address_book, telemetry=telemetry, retry_policy=retry_policy
        )
        self._servers: dict[str, TcpNode] = {}
        self._poller = FlushPoller(
            poll_interval(config.max_batch_delay), self._poll_flush
        )

    # ------------------------------------------------------------------
    # Transport: router and node servers
    # ------------------------------------------------------------------

    _send_all = FresqueSystem._transmit_all

    def _send(self, destination: str, messages) -> bool:
        try:
            self.router.send_run(destination, messages)
        except PeerUnavailable:
            if not destination.startswith("cn-"):
                raise
            return False
        return True

    def _add_server(self, name: str) -> TcpNode:
        server = TcpNode(
            name,
            self._handlers[name],
            self._send_all,
            telemetry=self.telemetry,
            fault_plan=self._fault_plan,
        )
        self._servers[name] = server
        self._address_book[name] = server.port
        return server

    def _spawn(self) -> None:
        for name in self._handlers:
            self._add_server(name)
        for server in self._servers.values():
            server.start()
        self._poller.start()

    def shutdown(self) -> None:
        """Stop the flush poller, every node, and all connections."""
        self._poller.stop()
        for server in self._servers.values():
            server.stop()
        self.router.close()

    # ------------------------------------------------------------------
    # Crashes on this substrate
    # ------------------------------------------------------------------

    def _kill_node(self, node_id: int) -> None:
        """Crash-stop the node, then degrade around it: whatever it held
        or had not read is lost, and the dispatcher re-sends it."""
        name = f"cn-{node_id}"
        self._servers[name].crash()
        self.router.evict(name)
        self._node_down(node_id)

    # ------------------------------------------------------------------
    # Settling and supervision
    # ------------------------------------------------------------------

    def settle(self, publication: int, timeout: float = 120.0) -> None:
        """Block until the cloud's receipt for ``publication`` lands.

        The wait blocks on the cloud adapter's receipt condition (woken
        by delivery, not polled), waking every 250 ms to supervise node
        health; a computing node found crashed mid-publication is
        absorbed in degraded mode.  A missed deadline raises
        :class:`ClusterTimeout` with the full health report.
        """
        deadline = WALL_CLOCK.now() + timeout
        while True:
            self._supervise()
            remaining = deadline - WALL_CLOCK.now()
            if remaining <= 0:
                raise ClusterTimeout(
                    publication, timeout, self.health_report()
                )
            receipt = self._cloud_adapter.wait_for_receipt(
                publication, timeout=min(0.25, remaining)
            )
            if receipt is not None:
                self._supervise()
                self._await_announce(deadline)
                return

    def _await_announce(self, deadline: float) -> None:
        """Wait until the cloud has opened the dispatcher's *current*
        publication.

        The receipt for publication *N* says nothing about the trailing
        ``start_publication`` cascade (NewPublication → template →
        merger → cloud) that opened *N+1*: those frames may still be in
        flight when the receipt lands.  Post-settle state inspection
        (fingerprints) must not race that tail, so block until the
        cloud has announced every publication the dispatcher has
        opened: a wait on the cloud adapter's condition, woken by the
        announcement, waking every 250 ms to supervise.
        """
        current = self.dispatcher.publication
        while not self._cloud_adapter.wait_for_announce(
            current, timeout=min(0.25, max(0.0, deadline - WALL_CLOCK.now()))
        ):
            if WALL_CLOCK.now() >= deadline:
                raise ClusterTimeout(current, 0.0, self.health_report())
            self._supervise()

    def _supervise(self) -> None:
        """Absorb computing-node crashes; raise anything else.

        A crashed computing node is marked down (degraded mode).  A
        crashed trusted node — checking, merger, cloud — cannot be
        degraded around and fails the publication, as does any recorded
        worker/reader error on a live node.
        """
        for server in list(self._servers.values()):
            if server.name in self._dead:
                continue
            if server.crashed:
                if server.name.startswith("cn-"):
                    self._node_down(int(server.name[3:]))
                    continue
                raise RuntimeError(
                    f"trusted node {server.name} crashed — the cluster "
                    f"cannot degrade around the checking node, merger "
                    f"or cloud"
                )
            fatal = [
                error
                for error in server.errors
                if not isinstance(error, TornFrame)
            ]
            if fatal:
                server.errors = []
                raise RuntimeError(
                    f"node {server.name} failed"
                ) from fatal[0]

    def health_report(self) -> dict:
        """Diagnosable cluster snapshot: per-node heartbeats, router
        retry/reconnect totals, the degraded-mode dead set, and the
        messages the checking node holds and the seq it awaits beside
        the oldest unadmitted one (equal when it waits on a lost
        batch)."""
        return {
            "nodes": [server.health() for server in self._servers.values()],
            "router": {
                "retries": self.router.retries,
                "reconnects": self.router.reconnects,
            },
            "dead_nodes": sorted(self._dead),
            "held": self.checking.pending,
            "next_seq": self.checking.next_seq,
            "oldest_unadmitted": self.dispatcher.oldest_unadmitted,
        }

    def run_publication(self, lines: list[str], timeout: float = 60.0) -> int:
        """Ingest ``lines``, close the publication, wait for the cloud to
        match it (:meth:`settle`).  Returns the matched pair count."""
        self._feed(lines)
        return self.finish_publication(timeout).records_matched

    def make_client(self) -> QueryClient:
        """Query client over the cluster's cloud (call between runs)."""
        return QueryClient(self.config.schema, self.cipher, self.cloud)
