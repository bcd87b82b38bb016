"""TCP cluster tests: the full protocol over real loopback sockets."""

import pytest

from repro.core.config import FresqueConfig
from repro.datasets.flu import FluSurveyGenerator
from repro.records.serialize import parse_raw_line
from repro.runtime.tcp import TcpFresqueCluster


@pytest.fixture
def cluster(flu_config, fast_cipher):
    with TcpFresqueCluster(flu_config, fast_cipher, seed=42) as running:
        yield running


class TestTcpCluster:
    def test_publication_over_sockets(self, cluster, flu_config):
        generator = FluSurveyGenerator(seed=81)
        lines = list(generator.raw_lines(600))
        matched = cluster.run_publication(lines)
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
        assert first > 150 and second > 150
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
            assert cluster.run_publication(lines) == expected

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

        from repro.runtime.tcp import Router, TcpNode

        router = Router({})
        node = TcpNode("solo", lambda message: [], router)
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
        router.close()
        # Idempotent.
        node.stop()

    def test_torn_frame_recorded_as_node_error(self):
        import socket
        import struct
        import time

        from repro.runtime.tcp import Router, TcpNode, TornFrame

        router = Router({})
        node = TcpNode("victim", lambda message: [], router)
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
            router.close()
        assert len(node.errors) == 1
        assert isinstance(node.errors[0], TornFrame)
        assert "mid-frame" in str(node.errors[0])

    def test_oversized_frame_recorded_as_node_error(self):
        import socket
        import struct
        import time

        from repro.runtime.tcp import Router, TcpNode
        from repro.runtime.wire import WireError

        router = Router({})
        node = TcpNode("victim", lambda message: [], router)
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
            router.close()
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
