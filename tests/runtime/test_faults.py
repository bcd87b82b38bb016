"""Fault-injection tests: deterministic schedules, reconnect, degraded mode."""

import socket
import threading
import time

import pytest

from repro.benchfab.runner import FAULT_PLANS
from repro.core.messages import PublishingMsg
from repro.datasets.flu import FluSurveyGenerator
from repro.runtime.faults import CRASH, RESTART, FaultPlan
from repro.runtime.tcp import (
    PeerUnavailable,
    RetryPolicy,
    Router,
    TcpFresqueCluster,
    TcpNode,
)
from repro.runtime.wire import decode_message, read_frames


def _fast_retry() -> RetryPolicy:
    return RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05)


class _Sink:
    """A minimal frame-collecting server for router tests."""

    def __init__(self):
        self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(16)
        self.port = self.server.getsockname()[1]
        self.messages = []
        self.connections = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                connection, _ = self.server.accept()
            except OSError:
                return
            self.connections.append(connection)
            threading.Thread(
                target=self._drain, args=(connection,), daemon=True
            ).start()

    def _drain(self, connection):
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
                self.messages.append(decode_message(frame)[1])

    def wait_messages(self, count, timeout=5.0):
        deadline = time.monotonic() + timeout
        while len(self.messages) < count and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.messages

    def close(self):
        self.server.close()
        for connection in self.connections:
            try:
                connection.close()
            except OSError:
                pass


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        """Two identically-built plans fed the same event sequence fire
        the same faults — the reproducibility contract."""

        def build():
            return (
                FaultPlan(seed=7)
                .drop_frames("checking", probability=0.3)
                .duplicate_frames("cloud", probability=0.2)
                .sever_connection("merger", at_frames=(3, 9))
                .crash_node("cn-1", after_handled=5)
            )

        first, second = build(), build()
        decisions_a = [first.on_send("checking") for _ in range(50)]
        decisions_a += [first.on_send("cloud") for _ in range(50)]
        decisions_a += [first.on_send("merger") for _ in range(12)]
        actions_a = [first.on_node_frame("cn-1") for _ in range(10)]
        decisions_b = [second.on_send("checking") for _ in range(50)]
        decisions_b += [second.on_send("cloud") for _ in range(50)]
        decisions_b += [second.on_send("merger") for _ in range(12)]
        actions_b = [second.on_node_frame("cn-1") for _ in range(10)]
        assert decisions_a == decisions_b
        assert actions_a == actions_b
        assert first.schedule == second.schedule
        assert any(d.drop for d in decisions_a)
        assert any(d.sever for d in decisions_a)

    def test_per_target_counters_ignore_interleaving(self):
        """at_frames rules index each target's own event stream, so the
        decision for frame n of a target is interleaving-independent."""
        plan = FaultPlan().drop_frames("checking", at_frames=(2,))
        # Interleave sends to another destination between the checking
        # frames; the drop still lands on checking's frame #2.
        outcomes = []
        for i in range(5):
            plan.on_send("cloud")
            outcomes.append(plan.on_send("checking").drop)
            plan.on_send("cloud")
        assert outcomes == [False, False, True, False, False]

    def test_different_seed_different_schedule(self):
        def build(seed):
            plan = FaultPlan(seed=seed).drop_frames(
                "checking", probability=0.5
            )
            return [plan.on_send("checking").drop for _ in range(64)]

        assert build(1) != build(2)

    def test_crash_fires_once(self):
        plan = FaultPlan().crash_node("cn-0", after_handled=2)
        actions = [plan.on_node_frame("cn-0") for _ in range(6)]
        assert actions == [None, None, CRASH, None, None, None]
        plan = FaultPlan().crash_node("cn-0", after_handled=0, restart=True)
        assert plan.on_node_frame("cn-0") == RESTART
        assert plan.on_node_frame("cn-0") is None


class TestRouterFaults:
    def test_sever_forces_reconnect(self):
        """A severed connection stays poisoned in the cache; the next
        send must evict it, back off, and reconnect."""
        sink = _Sink()
        plan = FaultPlan().sever_connection("sink", at_frames=(2,))
        router = Router(
            {"sink": sink.port},
            fault_plan=plan,
            retry_policy=_fast_retry(),
        )
        try:
            for i in range(5):
                router.send("sink", PublishingMsg(i))
            received = sink.wait_messages(5)
        finally:
            router.close()
            sink.close()
        assert sorted(m.publication for m in received) == [0, 1, 2, 3, 4]
        assert router.reconnects >= 1
        assert router.retries >= 1
        assert len(sink.connections) == 2

    def test_drop_and_duplicate(self):
        sink = _Sink()
        plan = (
            FaultPlan()
            .drop_frames("sink", at_frames=(1,))
            .duplicate_frames("sink", at_frames=(3,))
        )
        router = Router({"sink": sink.port}, fault_plan=plan)
        try:
            for i in range(4):
                router.send("sink", PublishingMsg(i))
            received = sink.wait_messages(4)
        finally:
            router.close()
            sink.close()
        assert sorted(m.publication for m in received) == [0, 2, 3, 3]

    def test_peer_unavailable_after_budget(self):
        """With nobody listening, the retry budget is spent and the send
        surfaces PeerUnavailable, not a bare OSError."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(max_attempts=3, base_delay=0.005, max_delay=0.01)
        router = Router({"ghost": port}, retry_policy=policy)
        try:
            with pytest.raises(PeerUnavailable) as info:
                router.send("ghost", PublishingMsg(0))
        finally:
            router.close()
        assert info.value.destination == "ghost"
        assert info.value.attempts == 3
        assert router.retries == 2
        assert router.reconnects == 0


class TestNodeCrash:
    def test_crash_and_restart(self):
        """An injected crash closes the node's sockets and drops its
        inbox; with restart=True it comes back on the same port."""
        handled = []
        plan = FaultPlan().crash_node("victim", after_handled=2, restart=True)
        router = Router({}, retry_policy=_fast_retry())
        node = TcpNode(
            "victim",
            lambda message: handled.append(message) or [],
            router,
            fault_plan=plan,
        )
        node.start()
        sender = Router(
            {"victim": node.port}, retry_policy=_fast_retry()
        )
        try:
            for i in range(6):
                sender.send("victim", PublishingMsg(i))
                time.sleep(0.05)
            deadline = time.monotonic() + 5
            while len(handled) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            health = node.health()
        finally:
            sender.close()
            node.stop()
            router.close()
        assert node.restarts == 1
        assert not node.crashed
        # Frame #2 triggered the crash and was dropped with the inbox.
        assert len(node.dropped_messages()) >= 1
        assert [m.publication for m in handled[:2]] == [0, 1]
        assert len(handled) >= 3
        assert health["alive"]

    def test_crash_without_restart_stays_dead(self):
        plan = FaultPlan().crash_node("victim", after_handled=0)
        router = Router({})
        node = TcpNode("victim", lambda m: [], router, fault_plan=plan)
        node.start()
        sender = Router(
            {"victim": node.port}, retry_policy=_fast_retry()
        )
        try:
            sender.send("victim", PublishingMsg(0))
            deadline = time.monotonic() + 5
            while not node.crashed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert node.crashed
            assert not node.health()["alive"]
            # The first post-crash write may still land in the dead
            # peer's kernel buffer; within a few frames the RST surfaces
            # and the retry budget is spent against the closed port.
            with pytest.raises(PeerUnavailable):
                for i in range(1, 6):
                    sender.send("victim", PublishingMsg(i))
                    time.sleep(0.02)
        finally:
            sender.close()
            node.stop()
            router.close()


class TestSeveredPublication:
    def test_severed_connection_loses_nothing(self, flu_config, fast_cipher):
        """A router connection severed twice mid-publication costs
        retries and a reconnect, not records: the publication matches
        exactly what the healthy run of the same stream matches."""
        lines = list(FluSurveyGenerator(seed=71).raw_lines(400))
        matched = {}
        for name, plan in (
            ("healthy", None),
            ("severed", FAULT_PLANS["sever-checking"]()),
        ):
            cluster = TcpFresqueCluster(
                flu_config,
                fast_cipher,
                seed=9,
                fault_plan=plan,
                retry_policy=_fast_retry(),
            )
            with cluster:
                matched[name] = cluster.run_publication(lines, timeout=60.0)
        assert matched["severed"] == matched["healthy"] > 0
        assert cluster.router.reconnects >= 1


class TestDegradedPublication:
    def test_cn_crash_mid_stream_completes_degraded(self, flu_config, fast_cipher):
        """The acceptance drill: one computing node crashes mid-stream
        and one router connection is severed, yet the publication
        completes with consistent matched-pair accounting."""
        # The 1ms delay on cn-1 sends paces the driver against the
        # worker, guaranteeing the crash lands while the stream is still
        # flowing — so the drill exercises rerouting, not just
        # inbox-dropping.
        plan = (
            FaultPlan(seed=11)
            .crash_node("cn-1", after_handled=40)
            .delay_frames("cn-1", 0.001, probability=1.0)
            .sever_connection("checking", at_frames=(120,))
        )
        generator = FluSurveyGenerator(seed=84)
        lines = list(generator.raw_lines(600))
        cluster = TcpFresqueCluster(
            flu_config,
            fast_cipher,
            seed=42,
            fault_plan=plan,
            retry_policy=_fast_retry(),
        )
        with cluster:
            matched = cluster.run_publication(lines, timeout=60.0)
        # The dead node's unread frames are lost, everything else must
        # arrive: matched pairs == pairs the checker released to the
        # cloud.  This identity is arrival-order-independent.
        checking = cluster.checking
        assert matched == checking.pairs_processed - checking.records_removed
        # Rough loss bound: only frames queued at the dead node (plus at
        # most a couple in its kernel buffers) may vanish.
        assert matched > 300
        assert cluster.dead_nodes == {"cn-1"}
        assert 1 in cluster.dispatcher.dead_nodes
        assert 1 in checking._dead_nodes
        assert cluster.dispatcher.records_rerouted > 0
        assert cluster.router.reconnects >= 1
        report = cluster.health_report()
        assert report["dead_nodes"] == ["cn-1"]
        crashed = [n for n in report["nodes"] if n["name"] == "cn-1"]
        assert crashed[0]["crashed"]

    def test_follow_up_publication_still_works(self, flu_config, fast_cipher):
        """After degrading around a dead node, later publications keep
        completing on the survivors."""
        plan = FaultPlan(seed=3).crash_node("cn-0", after_handled=10)
        generator = FluSurveyGenerator(seed=85)
        cluster = TcpFresqueCluster(
            flu_config,
            fast_cipher,
            seed=7,
            fault_plan=plan,
            retry_policy=_fast_retry(),
        )
        with cluster:
            first = cluster.run_publication(
                list(generator.raw_lines(200)), timeout=60.0
            )
            second = cluster.run_publication(
                list(generator.raw_lines(200)), timeout=60.0
            )
        assert cluster.dead_nodes == {"cn-0"}
        checking = cluster.checking
        assert first + second == (
            checking.pairs_processed - checking.records_removed
        )
        assert second > 150


class TestThreadedFaults:
    def test_dropped_messages_shrink_the_publication(
        self, flu_config, fast_cipher
    ):
        """The same plan API plugs into the in-process threaded runtime:
        dropped pair frames never reach the checking node."""
        from repro.runtime.cluster import ThreadedFresque

        lines = list(FluSurveyGenerator(seed=86).raw_lines(150))
        baseline = ThreadedFresque(flu_config, fast_cipher, seed=5)
        with baseline:
            baseline.run_publication(lines)
        plan = FaultPlan(seed=9).drop_frames("checking", probability=0.2)
        lossy = ThreadedFresque(
            flu_config, fast_cipher, seed=5, fault_plan=plan
        )
        with lossy:
            lossy.run_publication(lines)
        assert lossy.checking.pairs_processed < baseline.checking.pairs_processed
        assert any(e.action == "drop" for e in plan.schedule)

    def test_delayed_messages_still_drain(self, flu_config, fast_cipher):
        """Delayed deliveries are counted in-flight up front, so
        quiescence waits for them instead of finishing early."""
        from repro.runtime.cluster import ThreadedFresque

        lines = list(FluSurveyGenerator(seed=87).raw_lines(60))
        plan = FaultPlan().delay_frames(
            "checking", 0.05, at_frames=(0, 5, 10)
        )
        runtime = ThreadedFresque(
            flu_config, fast_cipher, seed=5, fault_plan=plan
        )
        with runtime:
            runtime.run_publication(lines)
        assert runtime.checking.pairs_processed > 0
        assert len([e for e in plan.schedule if e.action == "delay"]) == 3


class TestCollectorCrashRule:
    def test_fires_once_after_threshold(self):
        plan = FaultPlan(seed=1).crash_collector(after_records=3)
        decisions = [plan.on_collector_record() for _ in range(6)]
        assert decisions == [False, False, False, True, False, False]

    def test_recorded_in_schedule(self):
        plan = FaultPlan(seed=1).crash_collector(after_records=0)
        assert plan.on_collector_record()
        event = plan.schedule[-1]
        assert (event.site, event.target, event.action) == (
            "node", "collector", CRASH,
        )

    def test_no_rule_never_fires(self):
        plan = FaultPlan(seed=1)
        assert not any(plan.on_collector_record() for _ in range(10))
