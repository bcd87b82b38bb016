"""FRESQUE over real TCP sockets.

Each collector node gets its own listening socket on the loopback
interface and exchanges the wire-encoded protocol frames of
:mod:`repro.runtime.wire` — the transport of the paper's deployment, where
"the TCP socket was used for exchanging data among the components"
(Section 7.1).  Every node runs its handler on a dedicated worker thread
(actor-style).  The trusted nodes — checking node, merger, cloud and the
dispatcher's acknowledgement inbox — run in the driver's process; each
computing node runs in a child process forked at start-up
(:class:`ComputingNodeProcess`), so the ``k`` of them parse and encrypt
in parallel rather than under the driver's interpreter lock.

Topology
--------
The collector's one :class:`Router` dials every node, the children
included, so each destination has exactly one inbound connection and
the order a sender writes is the order its peer reads.  A child dials
nobody: its outputs come back already framed over a socketpair, and a
relay thread in the driver writes them through the Router without
decoding them.  Nodes share nothing but bytes on sockets, yet a child
cannot move to another machine by changing the address book alone: it
would need a Router of its own, and every destination a second inbound
connection, whose cross-link reordering the protocol does not tolerate
yet (docs/RUNTIMES.md).

The collector↔computing-node links are bounded (:data:`CN_INBOX_FRAMES`,
:data:`CN_SOCKET_BUFFER`): a child stops reading its socket while its
inbox is full, so TCP's own flow control holds the driver a few batches
ahead of the slowest computing node instead of letting a backlog build
up for the publication's close to drain.

Fault tolerance
---------------
The runtime survives transient transport faults instead of timing out:

* :class:`Router` evicts dead cached sockets and reconnects with capped
  exponential backoff + jitter (:class:`RetryPolicy`), raising
  :class:`PeerUnavailable` only once the budget is exhausted;
* :class:`TcpNode` supervises its reader threads (transport failures and
  torn frames are recorded in :attr:`TcpNode.errors`, not swallowed),
  tracks accepted connections so shutdown closes every fd, and reports
  :meth:`TcpNode.health`; :class:`ComputingNodeProcess` reports the
  same for a child, from the counters its relay records carry;
* :class:`TcpFresqueCluster` degrades around a dead computing node —
  the dispatcher re-sends the batches the checking node has not
  admitted to the survivors (shared-nothing makes that safe) and a
  :class:`NodeDown` notice lets the checking node finalise without the
  dead node's report; a missed deadline raises :class:`ClusterTimeout`
  carrying a per-node health report instead of a bare ``TimeoutError``.

Node crashes can be injected deterministically through
:class:`repro.runtime.faults.FaultPlan`; a computing node consults the
plan in its own process, and a crash ends that process.
"""

from __future__ import annotations

import bisect
import os
import queue
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass

from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import RecordCipher
from repro.runtime.poller import FlushPoller, poll_interval
from repro.runtime.wire import (
    WireError,
    append_frame,
    decode_message,
    read_frames,
    split_frames,
)
from repro.telemetry.clock import WALL_CLOCK
from repro.telemetry.context import coalesce

_STOP = object()

#: Frames a computing node's process lets queue before its reader stops
#: reading the socket, and the send and receive buffer (bytes, as set)
#: of each collector↔computing-node connection.  Together they let TCP
#: flow control hold the driver a few batches ahead of a computing node.
#: Chosen on ``gowalla_tcp`` (2 computing nodes, 2 vCPUs, medians of
#: 4–6 repetitions): unbounded, the driver finished ingesting in 53 ms and
#: each close drained the backlog in 150 ms; with 8 frames and 16 KiB,
#: 126 ms and 92 ms, at 4 % fewer records/s (docs/RUNTIMES.md).
CN_INBOX_FRAMES = 8
CN_SOCKET_BUFFER = 16 * 1024

#: The head of a record on a computing node's relay: the byte lengths of
#: the frames and of the error text that follow it, then the node's
#: counters — frames handled, lines parsed, records encrypted, items
#: rejected, ciphertext bytes out, frames a crash dropped, crashed
#: (0/1), torn frames seen.
_RELAY_HEAD = struct.Struct("<II8q")


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
    send_buffers:
        Destination → ``SO_SNDBUF`` of its connection, in bytes; a
        destination not named keeps the system default.

    The backoff jitter is drawn from ``random.Random(0)``.
    """

    def __init__(
        self,
        address_book: dict[str, int],
        telemetry=None,
        retry_policy: RetryPolicy | None = None,
        send_buffers: dict[str, int] | None = None,
    ):
        self._addresses = address_book
        self._send_buffers = send_buffers or {}
        self._connections: dict[str, socket.socket] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._guard = threading.Lock()
        self._retry = retry_policy if retry_policy is not None else RetryPolicy()
        self._rng = random.Random(0)
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
        reconnecting (with backoff) around transport failures.  A
        ``bytes`` message is a frame already built (a relayed one) and
        goes as it is.

        Inside :meth:`send_run`, ``run`` is the run's buffer: the frame
        is appended to it and leaves with the rest of the run, so every
        message still passes through here once."""
        if run is None:
            self.send_run(destination, (message,))
        elif type(message) is bytes:
            run += message
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
                        # fresque-lint: disable=FRQ-C102 -- serializing is the lock's job
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
        buffer = self._send_buffers.get(destination)
        if buffer is not None:
            dialed.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer)
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
    inbox_frames:
        Optional bound: once a read leaves this many frames queued, the
        reader stops reading until the worker takes them, and the
        sender's writes back up (``None``: unbounded).
    socket_buffer:
        Optional ``SO_RCVBUF`` / ``SO_SNDBUF`` of every accepted
        connection, in bytes (``None``: the system default).

    Supervision: reader-thread failures and torn frames are recorded in
    :attr:`errors` (surfaced by the driver), accepted connections are
    tracked and closed on :meth:`stop`, and :meth:`health` reports a
    heartbeat snapshot.
    """

    def __init__(
        self, name: str, handler, send_all, telemetry=None,
        fault_plan=None, inbox_frames: int | None = None,
        socket_buffer: int | None = None,
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
        if socket_buffer is not None:
            # Set before listen(): accepted connections inherit them.
            for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
                self._server.setsockopt(
                    socket.SOL_SOCKET, option, socket_buffer
                )
        self._server.bind(("127.0.0.1", 0))  # a free ephemeral port
        self._server.listen(32)
        self.port = self._server.getsockname()[1]
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._inbox_frames = inbox_frames
        #: Signalled when the worker takes frames or the node stops: a
        #: reader waits on it while the inbox is full.
        self._room = threading.Condition() if inbox_frames else None
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
            if self._room is not None:
                with self._room:
                    self._room.wait_for(self._has_room)

    def _has_room(self) -> bool:
        """Whether a bounded inbox may take another read (or the node
        is stopping)."""
        return self._inbox.qsize() < self._inbox_frames or not self._running

    def _wake_readers(self) -> None:
        if self._room is not None:
            with self._room:
                self._room.notify_all()

    def _worker_loop(self) -> None:
        inbox = self._inbox
        while True:
            frames = [inbox.get()]
            # The worker is the inbox's one consumer, so every frame
            # counted is there to take: the whole backlog, in order.
            frames += [inbox.get_nowait() for _ in range(inbox.qsize())]
            with self._lock:
                self._in_hand = len(frames)
            self._wake_readers()
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
        :attr:`dropped_frames`.  The node stays dead.
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
        self._wake_readers()
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
        self._wake_readers()
        self._inbox.put(_STOP)
        for thread in (self._acceptor, self._worker, *readers):
            if thread is not None and thread.is_alive():
                thread.join(timeout=2)


class _RelayWriter:
    """A computing node's end of its relay, in the node's own process.

    :meth:`handle` is the :class:`TcpNode`'s handler and :meth:`send_all`
    its send path: each drain's outbox leaves as one relay record — the
    frames, already built, behind a :data:`_RELAY_HEAD` carrying the
    node's counters and the text of any error recorded since the last
    record — in one write.
    """

    def __init__(self, relay: socket.socket, computing_node):
        self.relay = relay
        self._computing_node = computing_node
        #: The node hosting this writer (set once it is built).
        self.node: TcpNode | None = None
        self._handled = 0
        self._reported = 0  # entries of ``node.errors`` already sent

    def handle(self, message) -> list:
        outbox = self._computing_node.handle(message)
        self._handled += 1
        return outbox

    def send_all(self, outbox) -> None:
        record = bytearray(_RELAY_HEAD.size)
        for destination, message in outbox:
            append_frame(record, destination, message)
        frames = len(record) - _RELAY_HEAD.size
        node, cn = self.node, self._computing_node
        errors = node.errors[self._reported :]
        self._reported += len(errors)
        torn = sum(isinstance(error, TornFrame) for error in errors)
        text = "\n".join(
            repr(error) for error in errors if not isinstance(error, TornFrame)
        ).encode("utf-8", "replace")
        record += text
        _RELAY_HEAD.pack_into(
            record, 0, frames, len(text), self._handled, cn.parsed,
            cn.encrypted, cn.rejected, cn.bytes_out, node.dropped_frames,
            node.crashed, torn,
        )
        self.relay.sendall(record)


def _serve_computing_node(
    node: TcpNode, writer: _RelayWriter, make_cipher, inherited
) -> None:
    """The body of a computing node's process.

    Closes the sockets it inherited and does not own (``inherited``: the
    driver's ends of every relay forked so far, its own included, so the
    driver's exit is seen as the relay's end of file), builds its cipher
    afresh, and serves until the relay closes — the driver stopped or
    died — or the node crashes, whose dropped-frame count it reports
    before the process ends.
    """
    for sock in inherited:
        sock.close()
    # A computing node stands for a machine of its own: it does not stay
    # on the one CPU its driver may be pinned to (the ledger pins it).
    try:
        os.sched_setaffinity(0, range(os.cpu_count() or 1))
    # fresque-lint: disable=FRQ-R602 -- not a transport error: the inherited CPUs still serve
    except (AttributeError, OSError):
        pass
    writer._computing_node.cipher = make_cipher()
    node.start()
    threading.Thread(
        target=_stop_at_end_of_relay, args=(writer.relay, node),
        name=f"tcp-relay-eof-{node.name}", daemon=True,
    ).start()
    node._worker.join()
    if node.crashed:
        try:
            writer.send_all([])
        # fresque-lint: disable=FRQ-R602 -- the driver closed the relay: nobody is left to tell
        except OSError:
            pass


def _stop_at_end_of_relay(relay: socket.socket, node: TcpNode) -> None:
    """Stop ``node`` once nobody holds the other end of ``relay``."""
    while True:
        try:
            if not relay.recv(4096):
                break
        except OSError:
            break
    node.stop()


class ComputingNodeProcess:
    """A computing node forked into a child process, as the driver sees it.

    The child hosts the node's :class:`TcpNode` on the port the Router
    dials (``port``).  The node's outputs come back over ``relay``; the
    relay thread applies each record's counters to ``computing_node``
    (the driver's copy, so ``computing_nodes[i].rejected`` and the like
    read the child's counts), then hands its frames, undecoded, to
    ``send_all`` — the cluster's send path, through its one Router.
    ``sent`` returns the frames the Router has written to this node,
    for :attr:`pending`.

    It answers the driver's supervision as a :class:`TcpNode` does
    (``crashed``, ``errors``, :meth:`health`, :meth:`crash`,
    :meth:`stop`).  The relay's end of file is the child's end: a crash
    unless the driver was stopping it, and the relay thread then reaps
    the process.
    """

    def __init__(
        self, name: str, port: int, process, relay: socket.socket,
        computing_node, send_all, sent,
    ):
        self.name = name
        self.port = port
        self.pid = process.pid
        #: The child's exit code once reaped (negative: killed by that
        #: signal); ``None`` while it runs.
        self.exitcode: int | None = None
        self._process = process
        self._relay = relay
        self._computing_node = computing_node
        self._send_all = send_all
        self._sent = sent
        self.crashed = False
        self.errors: list[BaseException] = []
        self._handled = 0
        self.dropped_frames = 0
        self._last_seen = 0.0
        self._stopping = False
        self._reaped = False
        self._lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._relay_loop, name=f"tcp-relay-{name}", daemon=True
        )

    def start(self) -> None:
        """Start relaying the child's outputs."""
        self._thread.start()

    @property
    def handled(self) -> int:
        """Frames the child has handled, as of its last relay record."""
        return self._handled

    @property
    def pending(self) -> int:
        """Frames sent to the child that it has neither handled nor
        dropped (as of its last relay record)."""
        if self.crashed:
            return 0
        return max(0, self._sent() - self._handled - self.dropped_frames)

    def _relay_loop(self) -> None:
        buffer = bytearray()
        head = _RELAY_HEAD.size
        while True:
            try:
                chunk = self._relay.recv(1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                break
            buffer += chunk
            start = 0
            while len(buffer) - start >= head:
                frames, text, *counters = _RELAY_HEAD.unpack_from(
                    buffer, start
                )
                end = start + head + frames + text
                if end > len(buffer):
                    break
                self._record(counters, bytes(buffer[end - text : end]))
                if frames:
                    body = start + head
                    try:
                        self._send_all(
                            split_frames(buffer, body, body + frames)
                        )
                    except Exception as exc:  # surfaced by the driver
                        with self._lock:
                            self.errors.append(exc)
                start = end
            del buffer[:start]
        # A torn record at the end died with the child, like a frame
        # its crash kept from being sent.
        self._reap()
        with self._lock:
            if not self._stopping:
                self.crashed = True
        self._relay.close()

    def _record(self, counters, text: bytes) -> None:
        """Apply one relay record's counters and errors."""
        (
            handled, parsed, encrypted, rejected, bytes_out, dropped,
            crashed, torn,
        ) = counters
        node = self._computing_node
        node.parsed, node.encrypted = parsed, encrypted
        node.rejected, node.bytes_out = rejected, bytes_out
        with self._lock:
            self._handled, self.dropped_frames = handled, dropped
            self.errors += [
                TornFrame(f"{self.name}: peer closed mid-frame")
            ] * torn
            if text:
                self.errors.append(
                    TransportError(f"{self.name}: {text.decode('utf-8')}")
                )
            self._last_seen = WALL_CLOCK.now()
            if crashed:
                self.crashed = True

    def _reap(self) -> None:
        """Wait for the child to exit (killing it if it lingers) and
        release the process."""
        process = self._process
        process.join(timeout=5)
        if process.exitcode is None:
            process.kill()
            process.join()
        with self._lock:
            self.exitcode = process.exitcode
            process.close()
            self._reaped = True

    def crash(self) -> None:
        """Crash injection: kill the child like a machine going down
        (``SIGKILL``).  Returns once the relay has forwarded the records
        the child wrote before it died and the process is reaped."""
        with self._lock:
            if not self._reaped:
                self._process.kill()
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=10)
        self.crashed = True

    def health(self) -> dict:
        """Heartbeat snapshot, as :meth:`TcpNode.health`."""
        return {
            "name": self.name,
            "alive": self._thread.is_alive() and not self.crashed,
            "crashed": self.crashed,
            "handled": self._handled,
            "pending": self.pending,
            "dropped_frames": self.dropped_frames,
            "errors": len(self.errors),
            "last_seen": self._last_seen,
        }

    def stop(self) -> None:
        """Close the relay — the child stops at its end of file — and
        wait until the child has exited."""
        with self._lock:
            self._stopping = True
        TcpNode._shutdown_socket(self._relay)
        if self._thread.ident is not None:
            self._thread.join(timeout=10)
        else:  # never started
            self._reap()


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
    cluster's entry point); the checking node, the merger and the cloud
    are :class:`TcpNode` servers in the driver's process, and each
    computing node a :class:`TcpNode` in a forked child
    (:class:`ComputingNodeProcess`), all reachable only through their
    sockets.

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
            self._address_book, telemetry=telemetry, retry_policy=retry_policy,
            send_buffers={
                f"cn-{node_id}": CN_SOCKET_BUFFER
                for node_id in range(config.num_computing_nodes)
            },
        )
        self._servers: dict[str, TcpNode | ComputingNodeProcess] = {}
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

    def _fork_computing_node(self, node_id: int, inherited: list) -> None:
        """Fork computing node ``node_id`` into a child process serving
        its :class:`TcpNode` on a port bound here, and keep its
        :class:`ComputingNodeProcess`.  ``inherited`` gathers the
        driver's relay ends, which every later child closes."""
        name = f"cn-{node_id}"
        ours, theirs = socket.socketpair()
        inherited.append(ours)
        writer = _RelayWriter(theirs, self.computing_nodes[node_id])
        node = TcpNode(
            name, writer.handle, writer.send_all, telemetry=self.telemetry,
            fault_plan=self._fault_plan, inbox_frames=CN_INBOX_FRAMES,
            socket_buffer=CN_SOCKET_BUFFER,
        )
        writer.node = node
        # Imported here: the many processes that import this module and
        # never fork (every durable collector does) need not load it.
        import multiprocessing

        # Fork, never spawn: a fresh interpreter importing ``repro``
        # costs ~160 ms per child, a fork ~5 ms.
        process = multiprocessing.get_context("fork").Process(
            target=_serve_computing_node,
            args=(node, writer, self.cipher.for_process(), list(inherited)),
            name=f"fresque-{name}",
            daemon=True,
        )
        process.start()
        # The listening socket and the relay's far end are the child's.
        node._server.close()
        theirs.close()
        self._servers[name] = ComputingNodeProcess(
            name, node.port, process, ours, self.computing_nodes[node_id],
            self._send_all, lambda: self.router.sent_to.get(name, 0),
        )
        self._address_book[name] = node.port

    def _spawn(self) -> None:
        # Every fork comes before the cluster's first thread and first
        # connection: a child inherits no lock another thread holds and
        # no socket but those it closes.
        inherited: list[socket.socket] = []
        for node_id in range(len(self.computing_nodes)):
            self._fork_computing_node(node_id, inherited)
        for name in self._handlers:
            if name not in self._servers:
                self._add_server(name)
        for server in self._servers.values():
            server.start()
        self._poller.start()

    def shutdown(self) -> None:
        """Stop the flush poller, every node — the computing nodes
        first, while their relays can still deliver — and all
        connections."""
        self._poller.stop()
        for server in self._servers.values():
            server.stop()
        self.router.close()

    # ------------------------------------------------------------------
    # Crashes on this substrate
    # ------------------------------------------------------------------

    def _node_down(self, node_id: int) -> None:
        """Crash-stop computing node ``node_id`` — kill its process,
        drain its relay, drop its connection — then degrade around it:
        whatever it sent before dying reaches the checking node ahead of
        the :class:`NodeDown`, and whatever it held or had not read is
        lost and re-sent by the dispatcher.  Every path that degrades
        (``crash_node``, supervision, a failed send) comes through
        here."""
        name = f"cn-{node_id}"
        self._servers[name].crash()
        self.router.evict(name)
        super()._node_down(node_id)

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
