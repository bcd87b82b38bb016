"""TCP cluster tests: the full protocol over real loopback sockets."""

import pytest

from repro.core.config import FresqueConfig
from repro.datasets.flu import FluSurveyGenerator
from repro.records.serialize import parse_raw_line
from repro.runtime.tcp import TcpFresqueCluster


def _discard(outbox) -> None:
    """A standalone node's send path: its handler emits nothing."""


@pytest.fixture
def cluster(flu_config, fast_cipher):
    with TcpFresqueCluster(flu_config, fast_cipher, seed=42) as running:
        yield running


class TestTcpCluster:
    def test_publication_over_sockets(self, cluster, flu_config):
        generator = FluSurveyGenerator(seed=81)
        lines = list(generator.raw_lines(600))
        matched = cluster.run_publication(lines).published_pairs
        assert matched > 500
        schema = flu_config.schema
        truth = {parse_raw_line(line, schema).values for line in lines}
        result = cluster.make_client().range_query(340, 420)
        got = {record.values for record in result.records}
        assert got <= truth
        assert len(got) >= 0.85 * len(truth)

    def test_two_publications(self, cluster):
        generator = FluSurveyGenerator(seed=82)
        first = cluster.run_publication(list(generator.raw_lines(200)))
        second = cluster.run_publication(list(generator.raw_lines(200)))
        assert (first.publication, second.publication) == (0, 1)
        assert first.published_pairs > 150 and second.published_pairs > 150
        assert len(cluster.cloud.engine.published) == 2

    def test_matches_synchronous_driver(self, flu_config, fast_cipher):
        """Same seed + same stream over sockets publishes the same pair
        count as the in-process driver."""
        from repro.core.system import FresqueSystem

        generator = FluSurveyGenerator(seed=83)
        lines = list(generator.raw_lines(300))
        reference = FresqueSystem(flu_config, fast_cipher, seed=9)
        reference.start()
        expected = reference.run_publication(lines).published_pairs
        with TcpFresqueCluster(flu_config, fast_cipher, seed=9) as cluster:
            assert cluster.run_publication(lines).published_pairs == expected

    def test_unencodable_line_rejected_as_in_process(
        self, flu_config, fast_cipher
    ):
        """A line holding a lone surrogate crosses the sockets and is
        dropped and counted by a computing node, as in process — it does
        not raise out of ``ingest`` and take its batch with it."""
        from repro.core.system import FresqueSystem

        lines = list(FluSurveyGenerator(seed=84).raw_lines(300))
        lines[100:100] = ["\ud800\t1\t375\tnone", "p\udfff\t2\t380\tnone"]
        reference = FresqueSystem(flu_config, fast_cipher, seed=9)
        reference.start()
        expected = reference.run_publication(lines).published_pairs
        with TcpFresqueCluster(flu_config, fast_cipher, seed=9) as cluster:
            assert cluster.run_publication(lines).published_pairs == expected
            nodes = cluster.computing_nodes
            assert sum(node.rejected for node in nodes) == 2
        assert sum(node.rejected for node in reference.computing_nodes) == 2

    def test_double_start_rejected(self, flu_config, fast_cipher):
        cluster = TcpFresqueCluster(flu_config, fast_cipher, seed=1)
        cluster.start()
        try:
            with pytest.raises(RuntimeError):
                cluster.start()
        finally:
            cluster.shutdown()

    def test_every_node_listens_on_distinct_port(self, cluster):
        ports = [node.port for node in cluster._servers.values()]
        assert len(set(ports)) == len(ports)
        assert all(port > 0 for port in ports)


class TestRouter:
    """Regression tests for the outbound router's locking discipline."""

    def test_concurrent_senders_reuse_one_connection(self):
        import socket
        import threading
        import time

        from repro.core.messages import PublishingMsg
        from repro.runtime.tcp import Router
        from repro.runtime.wire import decode_message, read_frames

        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(16)
        received: list[int] = []
        connections: list[socket.socket] = []

        def drain(connection: socket.socket) -> None:
            buffer = bytearray()
            while True:
                try:
                    chunk = connection.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                buffer.extend(chunk)
                for frame in read_frames(buffer):
                    _, message = decode_message(frame)
                    received.append(message.publication)

        def accept_loop() -> None:
            while True:
                try:
                    connection, _ = server.accept()
                except OSError:
                    return
                connections.append(connection)
                threading.Thread(
                    target=drain, args=(connection,), daemon=True
                ).start()

        threading.Thread(target=accept_loop, daemon=True).start()
        router = Router({"sink": server.getsockname()[1]})
        try:
            # Warm up the connection, then hammer it from eight threads:
            # every later send must reuse the established socket, and the
            # per-connection lock must keep frames intact.
            router.send("sink", PublishingMsg(0))
            senders = [
                threading.Thread(
                    target=lambda base=base: [
                        router.send("sink", PublishingMsg(base + i))
                        for i in range(25)
                    ]
                )
                for base in range(1000, 9000, 1000)
            ]
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join()
            deadline = time.monotonic() + 5
            while len(received) < 201 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            router.close()
            server.close()
        assert len(connections) == 1
        assert sorted(received) == sorted(
            [0] + [base + i for base in range(1000, 9000, 1000) for i in range(25)]
        )


class TestRouterEviction:
    """The dead-cached-socket bug: a peer that dies and comes back must
    not leave the router wedged on its stale connection."""

    def test_send_recovers_after_peer_restart(self):
        import socket
        import threading
        import time

        from repro.core.messages import PublishingMsg
        from repro.runtime.tcp import RetryPolicy, Router
        from repro.runtime.wire import decode_message, read_frames

        received: list[int] = []

        class Peer:
            def __init__(self, port: int = 0):
                self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                self.server.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
                )
                self.server.bind(("127.0.0.1", port))
                self.server.listen(4)
                self.port = self.server.getsockname()[1]
                self.accepted: list[socket.socket] = []
                threading.Thread(target=self._serve, daemon=True).start()

            def _serve(self) -> None:
                while True:
                    try:
                        connection, _ = self.server.accept()
                    except OSError:
                        return
                    self.accepted.append(connection)
                    buffer = bytearray()
                    while True:
                        try:
                            chunk = connection.recv(65536)
                        except OSError:
                            break
                        if not chunk:
                            break
                        buffer.extend(chunk)
                        for frame in read_frames(buffer):
                            received.append(
                                decode_message(frame)[1].publication
                            )

            def kill(self) -> None:
                self.server.close()
                for connection in self.accepted:
                    try:
                        connection.close()
                    except OSError:
                        pass

        first = Peer()
        port = first.port
        router = Router(
            {"peer": port},
            retry_policy=RetryPolicy(max_attempts=8, base_delay=0.01,
                                     max_delay=0.05),
        )
        try:
            router.send("peer", PublishingMsg(0))
            deadline = time.monotonic() + 5
            while not received and time.monotonic() < deadline:
                time.sleep(0.01)
            # Kill the peer, then restart it on the same port: the
            # cached socket is now dead and must be evicted, not reused
            # forever.
            first.kill()
            time.sleep(0.05)
            second = Peer(port)
            try:
                for i in range(1, 9):
                    router.send("peer", PublishingMsg(i))
                    time.sleep(0.05)
                deadline = time.monotonic() + 5
                while len(received) < 7 and time.monotonic() < deadline:
                    time.sleep(0.01)
            finally:
                second.kill()
        finally:
            router.close()
        # A frame or two may vanish into the dead socket's kernel buffer
        # before the RST surfaces; once the failed write is observed the
        # router must evict, reconnect, and deliver every later frame to
        # the restarted peer instead of wedging forever.
        assert 0 in received
        assert set(received) >= {6, 7, 8}
        assert len(received) >= 7
        assert router.reconnects >= 1


class TestNodeLifecycle:
    def test_stop_closes_connections_and_joins_readers(self):
        import socket
        import threading
        import time

        from repro.runtime.tcp import TcpNode

        node = TcpNode("solo", lambda message: [], _discard)
        node.start()
        client = socket.create_connection(("127.0.0.1", node.port), 5)
        deadline = time.monotonic() + 5
        while not node._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(node._connections) == 1
        readers = list(node._readers)
        assert len(readers) == 1
        node.stop()
        for reader in readers:
            assert not reader.is_alive()
        assert node._connections == []
        # The node closed its side: our end sees EOF promptly.
        client.settimeout(5)
        assert client.recv(1) == b""
        client.close()
        # Idempotent.
        node.stop()

    def test_torn_frame_recorded_as_node_error(self):
        import socket
        import struct
        import time

        from repro.runtime.tcp import TcpNode, TornFrame

        node = TcpNode("victim", lambda message: [], _discard)
        node.start()
        try:
            client = socket.create_connection(("127.0.0.1", node.port), 5)
            # A frame header promising 100 bytes, then only 10, then EOF.
            client.sendall(struct.pack("<I", 100) + b"x" * 10)
            client.close()
            deadline = time.monotonic() + 5
            while not node.errors and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            node.stop()
        assert len(node.errors) == 1
        assert isinstance(node.errors[0], TornFrame)
        assert "mid-frame" in str(node.errors[0])

    def test_oversized_frame_recorded_as_node_error(self):
        import socket
        import struct
        import time

        from repro.runtime.tcp import TcpNode
        from repro.runtime.wire import WireError

        node = TcpNode("victim", lambda message: [], _discard)
        node.start()
        try:
            client = socket.create_connection(("127.0.0.1", node.port), 5)
            client.sendall(struct.pack("<I", 2**31) + b"x" * 16)
            deadline = time.monotonic() + 5
            while not node.errors and time.monotonic() < deadline:
                time.sleep(0.01)
            client.close()
        finally:
            node.stop()
        assert node.errors and isinstance(node.errors[0], WireError)

    def test_repeated_cycles_leak_no_fds_or_threads(
        self, flu_config, fast_cipher
    ):
        """20 start/shutdown cycles (with traffic) must not grow the
        process's fd table or thread count — the stop() leak regression."""
        import os
        import threading

        from repro.datasets.flu import FluSurveyGenerator
        from repro.runtime.tcp import TcpFresqueCluster

        def fd_count() -> int:
            return len(os.listdir("/proc/self/fd"))

        lines = list(FluSurveyGenerator(seed=88).raw_lines(30))
        # Warm-up cycle absorbs lazy imports and interpreter caches.
        with TcpFresqueCluster(flu_config, fast_cipher, seed=0) as cluster:
            cluster.run_publication(lines, timeout=30.0)
        fds_before = fd_count()
        threads_before = threading.active_count()
        for cycle in range(20):
            with TcpFresqueCluster(
                flu_config, fast_cipher, seed=cycle
            ) as cluster:
                cluster.run_publication(lines, timeout=30.0)
        assert fd_count() <= fds_before + 2
        assert threading.active_count() <= threads_before + 2


class TestReceiptCondition:
    def test_wait_for_receipt_wakes_promptly(self):
        """run_publication's wait is condition-signalled: a receipt
        delivered mid-wait wakes the waiter immediately, not at the next
        poll tick."""
        import threading
        import time

        from repro.cloud.node import FresqueCloud
        from repro.core.system import CloudAdapter
        from repro.index.domain import AttributeDomain

        class _Receipt:
            publication = 7
            records_matched = 123

        adapter = CloudAdapter(FresqueCloud(AttributeDomain(0, 100, 10)))
        timer = threading.Timer(0.1, adapter._deliver_receipt, args=(_Receipt(),))
        timer.daemon = True
        started = time.monotonic()
        timer.start()
        receipt = adapter.wait_for_receipt(7, timeout=10.0)
        elapsed = time.monotonic() - started
        assert receipt is not None and receipt.records_matched == 123
        assert elapsed < 1.0  # woke on the signal, far before the timeout

    def test_wait_for_receipt_times_out(self):
        from repro.cloud.node import FresqueCloud
        from repro.core.system import CloudAdapter
        from repro.index.domain import AttributeDomain

        adapter = CloudAdapter(FresqueCloud(AttributeDomain(0, 100, 10)))
        assert adapter.wait_for_receipt(0, timeout=0.05) is None

    def test_wait_for_announce_wakes_on_the_announcement(self):
        import threading

        from repro.cloud.node import FresqueCloud
        from repro.core.messages import AnnouncePublication
        from repro.core.system import CloudAdapter
        from repro.index.domain import AttributeDomain

        adapter = CloudAdapter(FresqueCloud(AttributeDomain(0, 100, 10)))
        assert not adapter.wait_for_announce(0, timeout=0.05)
        timer = threading.Timer(
            0.1, adapter.handle, args=(AnnouncePublication(0),)
        )
        timer.daemon = True
        timer.start()
        assert adapter.wait_for_announce(0, timeout=10.0)

    def test_settle_waits_for_the_announcement_without_sleeping(
        self, flu_config, fast_cipher, monkeypatch
    ):
        """The trailing announcement of the next publication is waited
        for on the adapter's condition: with ``time.sleep`` raising and
        that announcement held back, ``settle`` still returns."""
        import threading
        import time

        lines = list(FluSurveyGenerator(seed=89).raw_lines(100))
        with TcpFresqueCluster(flu_config, fast_cipher, seed=3) as cluster:
            adapter = cluster._cloud_adapter
            announce = adapter._announce

            def late_announce(message):
                if message.publication >= 1:
                    threading.Event().wait(0.2)
                return announce(message)

            adapter._announce = late_announce

            def no_sleep(seconds):
                raise AssertionError(f"time.sleep({seconds}) polled")

            cluster._feed(lines)
            monkeypatch.setattr(time, "sleep", no_sleep)
            receipt = cluster.finish_publication(timeout=30.0)
            monkeypatch.undo()
        assert receipt is not None and receipt.records_matched > 0
        assert cluster.cloud.is_announced(1)


def _wait_until(condition, timeout: float = 5.0) -> None:
    import time

    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestInboxDrain:
    """A node's worker handles every frame queued when it wakes, then
    writes each destination's run of outputs in one socket write."""

    @pytest.fixture
    def wired(self, flu_config, fast_cipher):
        """An unstarted cluster lending its send path, and two started
        sink nodes ``a`` and ``b`` recording what they receive."""
        from repro.runtime.tcp import TcpNode

        cluster = TcpFresqueCluster(flu_config, fast_cipher, seed=1)
        received = {"a": [], "b": []}
        sinks = []
        for name, messages in received.items():
            sink = TcpNode(
                name, lambda m, into=messages: into.append(m) or [], _discard
            )
            sink.start()
            cluster._address_book[name] = sink.port
            sinks.append(sink)
        yield cluster, received
        cluster.router.close()
        for sink in sinks:
            sink.stop()

    @staticmethod
    def _queued_node(cluster, handler, frames: int, fault_plan=None):
        """Node ``n`` with ``frames`` publishing notices in its inbox
        before its worker starts."""
        from repro.core.messages import PublishingMsg
        from repro.runtime.tcp import TcpNode
        from repro.runtime.wire import encode_message

        node = TcpNode("n", handler, cluster._send_all, fault_plan=fault_plan)
        for index in range(frames):
            node._inbox.put(encode_message("n", PublishingMsg(index))[4:])
        return node

    def test_queued_frames_handled_in_order_one_write_per_run(
        self, wired, monkeypatch
    ):
        import socket

        from repro.core.messages import DoneMsg

        cluster, received = wired
        ports = {port: name for name, port in cluster._address_book.items()}
        writes = []
        for method in ("send", "sendall"):
            original = getattr(socket.socket, method)

            def spy(sock, data, *args, original=original):
                writes.append(ports.get(sock.getpeername()[1]))
                return original(sock, data, *args)

            monkeypatch.setattr(socket.socket, method, spy)
        handled = []

        def handler(message):
            index = message.publication
            handled.append(index)
            if index < 4:
                return [("a", DoneMsg(index))]
            return [("b", DoneMsg(index)), ("b", DoneMsg(100 + index))]

        node = self._queued_node(cluster, handler, 5)
        node.start()
        try:
            _wait_until(lambda: len(received["a"]) + len(received["b"]) == 6)
        finally:
            node.stop()
        assert handled == [0, 1, 2, 3, 4]
        assert [m.publication for m in received["a"]] == [0, 1, 2, 3]
        assert [m.publication for m in received["b"]] == [4, 104]
        assert writes == ["a", "b"]
        assert node.handled == 5 and node.pending == 0

    def test_crash_mid_drain_sends_the_handled_and_drops_the_rest(
        self, wired
    ):
        from repro.core.messages import DoneMsg
        from repro.runtime.faults import FaultPlan

        cluster, received = wired
        handled = []

        def handler(message):
            handled.append(message.publication)
            return [("a", DoneMsg(message.publication))]

        plan = FaultPlan().crash_node("n", after_handled=3)
        node = self._queued_node(cluster, handler, 6, fault_plan=plan)
        node.start()
        try:
            _wait_until(lambda: node.dropped_frames and len(received["a"]) == 3)
        finally:
            node.stop()
        assert node.crashed
        assert handled == [0, 1, 2]
        assert [m.publication for m in received["a"]] == [0, 1, 2]
        assert node.dropped_frames == 3
        assert node.handled == 3


class TestRunWrite:
    def test_a_run_torn_mid_write_resumes_at_the_torn_frame(
        self, monkeypatch
    ):
        """The connection takes frame 0 and part of frame 1, then
        breaks: the retry on a fresh connection starts at frame 1, so
        every frame arrives once."""
        import errno
        import socket

        from repro.core.messages import DoneMsg
        from repro.runtime.tcp import RetryPolicy, Router, TcpNode, TornFrame
        from repro.runtime.wire import encode_message

        received = []
        sink = TcpNode("sink", lambda m: received.append(m) or [], _discard)
        sink.start()
        router = Router(
            {"sink": sink.port},
            retry_policy=RetryPolicy(base_delay=0.01, max_delay=0.05),
        )
        first = len(encode_message("sink", DoneMsg(0)))
        original = socket.socket.send
        calls = []

        def breaking_send(sock, data, *args):
            calls.append(len(data))
            if len(calls) == 1:  # the socket takes a frame and a half
                return original(sock, data[: first + 3], *args)
            if len(calls) == 2:
                sock.close()
                raise OSError(errno.EPIPE, "broken pipe")
            return original(sock, data, *args)

        monkeypatch.setattr(socket.socket, "send", breaking_send)
        try:
            router.send_run("sink", [DoneMsg(index) for index in range(5)])
            _wait_until(lambda: len(received) == 5)
        finally:
            router.close()
            sink.stop()
        assert sorted(m.publication for m in received) == [0, 1, 2, 3, 4]
        assert calls[2] == calls[0] - first  # resumed at frame 1
        assert router.retries == 1 and router.sent_to == {"sink": 5}
        assert any(isinstance(error, TornFrame) for error in sink.errors)


class TestComputingNodeProcesses:
    """Each computing node runs in a forked child: no child outlives
    the cluster or its own crash, a child outlives no collector, and
    the children's IVs never collide with each other's or the
    merger's."""

    @staticmethod
    def _config(flu_config, **extra):
        import dataclasses

        return dataclasses.replace(flu_config, num_computing_nodes=2, **extra)

    @staticmethod
    def _children(cluster):
        from repro.runtime.tcp import ComputingNodeProcess

        return {
            name: server
            for name, server in cluster._servers.items()
            if isinstance(server, ComputingNodeProcess)
        }

    @staticmethod
    def _alive(pid: int) -> bool:
        import os

        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    def _assert_gone(self, pids) -> None:
        import multiprocessing

        active = {child.pid for child in multiprocessing.active_children()}
        assert not active & set(pids)
        assert not [pid for pid in pids if self._alive(pid)]

    def test_no_child_outlives_shutdown(self, flu_config, fast_cipher):
        lines = list(FluSurveyGenerator(seed=90).raw_lines(120))
        cluster = TcpFresqueCluster(
            self._config(flu_config), fast_cipher, seed=3
        )
        with cluster:
            children = self._children(cluster)
            assert sorted(children) == ["cn-0", "cn-1"]
            pids = [child.pid for child in children.values()]
            assert all(self._alive(pid) for pid in pids)
            assert cluster.run_publication(lines).published_pairs > 100
        self._assert_gone(pids)
        assert [child.exitcode for child in children.values()] == [0, 0]

    def test_crash_node_leaves_no_child_behind(self, flu_config, fast_cipher):
        lines = list(FluSurveyGenerator(seed=91).raw_lines(120))
        cluster = TcpFresqueCluster(
            self._config(flu_config), fast_cipher, seed=3
        )
        with cluster:
            children = self._children(cluster)
            cluster.ingest_batch(lines[:60])
            cluster.crash_node(0)
            self._assert_gone([children["cn-0"].pid])
            assert self._alive(children["cn-1"].pid)
            cluster.ingest_batch(lines[60:])
            assert cluster.finish_publication() is not None
            assert cluster.dead_nodes == {"cn-0"}
        self._assert_gone([child.pid for child in children.values()])

    def test_a_fault_plan_crash_ends_its_process(
        self, flu_config, fast_cipher
    ):
        from repro.runtime.faults import FaultPlan
        from repro.runtime.tcp import RetryPolicy

        lines = list(FluSurveyGenerator(seed=92).raw_lines(300))
        cluster = TcpFresqueCluster(
            self._config(flu_config),
            fast_cipher,
            seed=3,
            fault_plan=FaultPlan().crash_node("cn-1", after_handled=20),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.005),
        )
        with cluster:
            children = self._children(cluster)
            assert cluster.run_publication(lines, timeout=60.0).published_pairs
            assert cluster.dead_nodes == {"cn-1"}
            self._assert_gone([children["cn-1"].pid])
            report = cluster.health_report()
            (victim,) = [n for n in report["nodes"] if n["name"] == "cn-1"]
            assert victim["crashed"] and not victim["alive"]
            assert victim["handled"] == 20
        self._assert_gone([child.pid for child in children.values()])

    def test_a_child_whose_relay_closes_exits_on_its_own(
        self, flu_config, fast_cipher
    ):
        """The relay's end of file is the collector's death: the child
        stops serving and exits cleanly, not killed."""
        import socket

        cluster = TcpFresqueCluster(
            self._config(flu_config), fast_cipher, seed=3
        )
        with cluster:
            child = self._children(cluster)["cn-0"]
            child._relay.shutdown(socket.SHUT_RDWR)
            _wait_until(lambda: child.exitcode is not None)
            assert child.exitcode == 0
            self._assert_gone([child.pid])

    def test_no_iv_repeats_across_children_and_merger(
        self, flu_config, fast_cipher
    ):
        """Unseeded IVs come from counters: each child draws from a
        counter block of its own, none from the one it inherited."""
        generator = FluSurveyGenerator(seed=93)
        config = self._config(flu_config, deterministic_ivs=False)
        with TcpFresqueCluster(config, fast_cipher, seed=3) as cluster:
            for _ in range(2):
                cluster.run_publication(list(generator.raw_lines(300)))
            store = cluster.cloud.store
            ciphertexts = [
                ciphertext
                for file_id in store.file_ids()
                for _, ciphertext in store.scan(file_id)
            ] + [
                ciphertext
                for dataset in cluster.cloud.engine.published
                for column in dataset.overflow.values()
                for ciphertext in column
            ]
            encrypted = sum(node.encrypted for node in cluster.computing_nodes)
        ivs = [ciphertext[:16] for ciphertext in ciphertexts]
        # The nodes' records, and the merger's padding beside them.
        assert len(ivs) > encrypted >= 600
        assert len(set(ivs)) == len(ivs)
