"""Fault-injection tests: deterministic crashes, reconnect, degraded mode.

Links neither lose, delay nor duplicate frames, so :class:`FaultPlan`
scripts crashes only.  A test that needs a transport fault makes it on
its own side: a runtime whose ``_send`` drops or delays a message of a
run, or a router whose cached socket is closed under it.
"""

import re
import socket
import threading
import time
from collections import Counter

import pytest

from repro.core.messages import PublishingMsg
from repro.datasets.flu import FluSurveyGenerator
from repro.runtime.faults import CRASH, FaultPlan
from repro.runtime.schedule import ScheduledFresque, ScheduleStall
from repro.runtime.tcp import (
    ClusterTimeout,
    PeerUnavailable,
    RetryPolicy,
    Router,
    TcpFresqueCluster,
    TcpNode,
)
from repro.runtime.wire import decode_message, read_frames


def _fast_retry() -> RetryPolicy:
    return RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05)


def _sever(router: Router, destination: str) -> None:
    """Close the router's cached socket to ``destination`` without
    evicting it: the next write fails like a peer dying underneath."""
    with router._guard:
        connection = router._connections.get(destination)
    if connection is not None:
        connection.close()


def _faulty(runtime_cls):
    """``runtime_cls`` whose ``_send`` first calls ``fault(runtime,
    destination, index)`` for each message of the run — ``index`` counts
    the messages sent to that destination from 0 — and drops the message
    if it returns ``False``; the rest of the run is sent."""

    class Faulty(runtime_cls):
        def __init__(self, *args, fault, **kwargs):
            super().__init__(*args, **kwargs)
            self._fault = fault
            self._counts = Counter()
            self._counts_lock = threading.Lock()

        def _send(self, destination, messages):
            with self._counts_lock:
                first = self._counts[destination]
                self._counts[destination] += len(messages)
            kept = [
                message
                for index, message in enumerate(messages, first)
                if self._fault(self, destination, index)
            ]
            return not kept or super()._send(destination, kept)

    return Faulty


def _discard(outbox) -> None:
    """A standalone node's send path: its handler emits nothing."""


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
    def test_identical_plans_same_schedule(self):
        """Two identically-built plans fed the same event sequence fire
        the same faults — the reproducibility contract."""

        def build():
            return (
                FaultPlan()
                .crash_node("cn-1", after_handled=5)
                .crash_node("cn-0", after_handled=2)
                .crash_collector(after_records=7)
            )

        def drive(plan):
            actions = []
            for _ in range(10):
                actions.append(plan.on_node_frame("cn-1"))
                actions.append(plan.on_node_frame("cn-0"))
                actions.append(plan.on_collector_records(3))
            return actions

        first, second = build(), build()
        assert drive(first) == drive(second)
        assert first.schedule == second.schedule
        assert [(e.target, e.index) for e in first.schedule] == [
            ("cn-0", 2), ("collector", 7), ("cn-1", 5),
        ]

    def test_per_target_counters_ignore_interleaving(self):
        """Rules index each target's own event stream, so the decision
        for frame n of a target is interleaving-independent."""
        plan = FaultPlan().crash_node("cn-0", after_handled=2)
        # Interleave frames of another node between cn-0's; the crash
        # still lands on cn-0's frame #2.
        outcomes = []
        for _ in range(5):
            plan.on_node_frame("cn-1")
            outcomes.append(plan.on_node_frame("cn-0"))
            plan.on_node_frame("cn-1")
        assert outcomes == [None, None, CRASH, None, None]

    def test_crash_fires_once(self):
        plan = FaultPlan().crash_node("cn-0", after_handled=2)
        actions = [plan.on_node_frame("cn-0") for _ in range(6)]
        assert actions == [None, None, CRASH, None, None, None]


class TestRouterFaults:
    def test_sever_forces_reconnect(self):
        """A severed connection stays poisoned in the cache; the next
        send must evict it, back off, and reconnect."""
        sink = _Sink()
        router = Router({"sink": sink.port}, retry_policy=_fast_retry())
        try:
            for i in range(5):
                if i == 2:
                    _sever(router, "sink")
                router.send("sink", PublishingMsg(i))
            received = sink.wait_messages(5)
        finally:
            router.close()
            sink.close()
        assert sorted(m.publication for m in received) == [0, 1, 2, 3, 4]
        assert router.reconnects >= 1
        assert router.retries >= 1
        assert len(sink.connections) == 2

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
    def test_crash_without_restart_stays_dead(self):
        """An injected crash closes the node's sockets and drops its
        inbox unread; the node never comes back (crash-stop)."""
        handled = []
        plan = FaultPlan().crash_node("victim", after_handled=2)
        node = TcpNode(
            "victim",
            lambda message: handled.append(message) or [],
            _discard,
            fault_plan=plan,
        )
        node.start()
        sender = Router(
            {"victim": node.port}, retry_policy=_fast_retry()
        )
        try:
            for i in range(3):
                sender.send("victim", PublishingMsg(i))
            # The crash counts its dropped frames last.
            deadline = time.monotonic() + 5
            while (
                not node.health()["dropped_frames"]
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert node.crashed
            health = node.health()
            assert not health["alive"]
            # The first post-crash write may still land in the dead
            # peer's kernel buffer; within a few frames the RST surfaces
            # and the retry budget is spent against the closed port.
            with pytest.raises(PeerUnavailable):
                for i in range(3, 8):
                    sender.send("victim", PublishingMsg(i))
                    time.sleep(0.02)
        finally:
            sender.close()
            node.stop()
        # Frame #2 triggered the crash and was dropped with the inbox:
        # counted, never handled.
        assert health["dropped_frames"] == node.dropped_frames >= 1
        assert [m.publication for m in handled] == [0, 1]


class TestSeveredPublication:
    def test_severed_connection_loses_nothing(self, flu_config, fast_cipher):
        """A router connection severed twice mid-publication costs
        retries and a reconnect, not records: the publication matches
        exactly what the healthy run of the same stream matches."""
        lines = list(FluSurveyGenerator(seed=71).raw_lines(400))

        def sever(cluster, destination, index):
            if destination == "checking" and index in (50, 150):
                _sever(cluster.router, destination)
            return True

        with TcpFresqueCluster(flu_config, fast_cipher, seed=9) as healthy:
            expected = healthy.run_publication(
                lines, timeout=60.0
            ).published_pairs
        cluster = _faulty(TcpFresqueCluster)(
            flu_config,
            fast_cipher,
            seed=9,
            retry_policy=_fast_retry(),
            fault=sever,
        )
        with cluster:
            matched = cluster.run_publication(
                lines, timeout=60.0
            ).published_pairs
        assert matched == expected > 0
        assert cluster.router.reconnects >= 1


class TestDegradedPublication:
    def test_cn_crash_mid_stream_completes_degraded(self, flu_config, fast_cipher):
        """The acceptance drill: one computing node crashes mid-stream
        and one router connection is severed, yet the publication
        matches exactly what a crash-free run of the same lines and seed
        matches: the dispatcher re-sends whatever the crash lost."""
        # The 1ms delay on cn-1 sends paces the driver against the
        # worker, guaranteeing the crash lands while the stream is still
        # flowing — so the drill exercises rerouting, not just
        # inbox-dropping.
        def delay_and_sever(cluster, destination, index):
            if destination == "cn-1":
                time.sleep(0.001)
            if destination == "checking" and index == 120:
                _sever(cluster.router, destination)
            return True

        generator = FluSurveyGenerator(seed=84)
        lines = list(generator.raw_lines(600))
        with TcpFresqueCluster(flu_config, fast_cipher, seed=42) as healthy:
            expected = healthy.run_publication(
                lines, timeout=60.0
            ).published_pairs
        cluster = _faulty(TcpFresqueCluster)(
            flu_config,
            fast_cipher,
            seed=42,
            fault_plan=FaultPlan().crash_node("cn-1", after_handled=40),
            retry_policy=_fast_retry(),
            fault=delay_and_sever,
        )
        with cluster:
            matched = cluster.run_publication(
                lines, timeout=60.0
            ).published_pairs
        # Nothing is lost: matched pairs == pairs the checker released
        # to the cloud == the crash-free run's.
        checking = cluster.checking
        assert matched == checking.pairs_processed - checking.records_removed
        assert matched == expected
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
        plan = FaultPlan().crash_node("cn-0", after_handled=10)
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
            ).published_pairs
            second = cluster.run_publication(
                list(generator.raw_lines(200)), timeout=60.0
            ).published_pairs
        assert cluster.dead_nodes == {"cn-0"}
        checking = cluster.checking
        assert first + second == (
            checking.pairs_processed - checking.records_removed
        )
        assert second > 150


class TestLostFrameStall:
    def test_a_dropped_pair_frame_times_out_naming_its_seq(
        self, flu_config, fast_cipher
    ):
        """A frame lost without a crash is not re-sent: the checking
        node waits for its seq, and the ``ClusterTimeout`` report names
        it twice — the seq the checking node awaits is the dispatcher's
        oldest unadmitted one — beside the messages it holds."""
        lines = list(FluSurveyGenerator(seed=86).raw_lines(150))
        cluster = _faulty(TcpFresqueCluster)(
            flu_config,
            fast_cipher,
            seed=5,
            retry_policy=_fast_retry(),
            fault=lambda _, destination, index: (destination, index)
            != ("checking", 10),
        )
        with cluster, pytest.raises(ClusterTimeout) as timeout:
            cluster.run_publication(lines, timeout=3.0)
        report = timeout.value.health_report
        seq, held = report["next_seq"], report["held"]
        assert seq == report["oldest_unadmitted"] > 0
        assert held == cluster.checking.pending > 0
        assert (
            f"the checking node holds {held} messages and awaits seq "
            f"{seq}; oldest unadmitted seq {seq}" in str(timeout.value)
        )


class TestScheduledFaults:
    def test_a_dropped_pair_frame_is_a_named_stall(
        self, flu_config, fast_cipher
    ):
        """A lost pair frame is no crash, so nothing re-sends its batch:
        the checking node waits for that seq, and ``settle`` raises
        ``ScheduleStall`` naming it — the seq the checking node awaits
        is the dispatcher's oldest unadmitted one — instead of
        publishing a smaller publication."""
        lines = list(FluSurveyGenerator(seed=86).raw_lines(150))
        dropped = []

        # Frame 0 to the checking node announces the publication; every
        # frame up to the close carries pairs.
        def drop(_, destination, index):
            if destination == "checking" and index in (10, 20, 30):
                dropped.append(index)
                return False
            return True

        lossy = _faulty(ScheduledFresque)(
            flu_config, fast_cipher, seed=5, fault=drop
        )
        with lossy, pytest.raises(ScheduleStall) as stall:
            lossy.run_publication(lines)
        awaited = re.search(r"awaits seq (\d+)", str(stall.value))
        oldest = re.search(r"oldest unadmitted seq is (\d+)", str(stall.value))
        assert awaited and oldest
        assert int(awaited[1]) == int(oldest[1]) == lossy.checking.next_seq
        held = lossy.checking.pending
        assert held > 0
        assert f"the checking node holds {held} messages" in str(stall.value)
        assert lossy.dispatcher.oldest_unadmitted == int(oldest[1])
        assert dropped == [10, 20, 30]


class TestCollectorCrashRule:
    def test_fires_once_after_threshold(self):
        plan = FaultPlan().crash_collector(after_records=3)
        survivors = [plan.on_collector_records(1) for _ in range(6)]
        assert survivors == [1, 1, 1, 0, 1, 1]

    def test_recorded_in_schedule(self):
        plan = FaultPlan().crash_collector(after_records=0)
        assert plan.on_collector_records(1) == 0
        event = plan.schedule[-1]
        assert (event.site, event.target, event.action) == (
            "node", "collector", CRASH,
        )

    def test_no_rule_never_fires(self):
        plan = FaultPlan()
        assert [plan.on_collector_records(1) for _ in range(10)] == [1] * 10

    @pytest.mark.parametrize("after", [0, 1, 5, 7, 8, 17])
    def test_count_form_matches_the_per_record_form(self, after):
        """Asking once for a chunk of n is asking n times for one: the
        same survivors, the same crash index in the schedule, and the
        same count afterwards."""
        per_record = FaultPlan().crash_collector(after_records=after)
        chunked = FaultPlan().crash_collector(after_records=after)
        survived = []
        for size in (3, 4, 1, 4, 6):
            answer = chunked.on_collector_records(size)
            expected = size
            for index in range(size):
                if not per_record.on_collector_records(1):
                    expected = index
                    break
            assert answer == expected
            survived.append(answer)
        assert chunked.schedule == per_record.schedule
        assert chunked.on_collector_records(2) == 2
        assert survived != [3, 4, 1, 4, 6]  # the rule fired
