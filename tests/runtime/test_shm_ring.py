"""Unit tests of the shared-memory SPSC ring.

What a slot carries is the wire frame (tests/runtime/test_wire.py).

Single-process tests: producer and consumer sides are exercised through
two attachments to the same segment, which is exactly the cross-process
contract (all coordination state lives in the segment header).
"""

from __future__ import annotations

import pytest

from repro.runtime.shm.ring import (
    RingBuffer,
    RingClosed,
    RingError,
    StatsBlock,
)


@pytest.fixture
def ring():
    ring = RingBuffer(capacity=1 << 12, create=True)
    yield ring
    ring.detach()
    ring.unlink()


class TestRingBasics:
    def test_roundtrip_in_order(self, ring):
        payloads = [bytes([i]) * (i + 1) for i in range(10)]
        for payload in payloads:
            assert ring.put(payload)
        got = []
        while True:
            frame = ring.read()
            if frame is None:
                break
            got.append(bytes(frame.view))
            ring.commit(frame)
        assert got == payloads

    def test_attach_by_name_sees_frames(self, ring):
        ring.put(b"hello")
        consumer = RingBuffer(name=ring.name)
        try:
            assert consumer.pop() == b"hello"
            # The consumer's commit is visible to the producer side.
            assert ring.used == 0
        finally:
            consumer.detach()

    def test_zero_copy_view(self, ring):
        ring.put(b"abcdef")
        frame = ring.read()
        assert isinstance(frame.view, memoryview)
        assert bytes(frame.view) == b"abcdef"
        ring.commit(frame)

    def test_oversized_payload_rejected(self, ring):
        with pytest.raises(RingError):
            ring.put(b"x" * (ring.max_payload + 1))

    def test_closed_ring_rejects_puts_but_drains(self, ring):
        ring.put(b"last")
        ring.mark_closed()
        with pytest.raises(RingClosed):
            ring.put(b"more")
        assert not ring.drained()  # one frame still unread
        assert ring.pop() == b"last"
        assert ring.drained()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=256)
        try:
            with pytest.raises(RingError):
                RingBuffer(name=shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_full_ring_times_out(self, ring):
        with pytest.raises(TimeoutError):
            while True:
                ring.put(b"y" * 512, timeout=0.05)
        assert ring.producer_stalls >= 1

    def test_abort_probe_unblocks_full_ring(self, ring):
        while ring.capacity - ring.used > 600:
            ring.put(b"z" * 512)
        assert ring.put(b"z" * 512, should_abort=lambda: True) is False


class TestRingWrap:
    def test_many_wraps_preserve_order_and_space(self, ring):
        """Thousands of frames through a 4 KiB ring: every byte ordered,
        wrap markers and skips invisible to the consumer."""
        import random

        rng = random.Random(7)
        sent = 0
        received = 0
        outstanding = []
        full = lambda: True  # non-blocking probe: abort instead of stalling
        for i in range(3000):
            payload = bytes([i % 251]) * rng.randrange(1, 400)
            while not ring.put(payload, should_abort=full):
                frame = ring.read()
                assert frame is not None
                expected = outstanding.pop(0)
                assert bytes(frame.view) == expected
                ring.commit(frame)
                received += 1
            outstanding.append(payload)
            sent += 1
        while outstanding:
            frame = ring.read()
            assert bytes(frame.view) == outstanding.pop(0)
            ring.commit(frame)
            received += 1
        assert received == sent

    def test_nonblocking_put_refuses_when_full(self, ring):
        count = 0
        while ring.put(b"q" * 256, should_abort=lambda: True):
            count += 1
        assert count >= 1  # filled up, then refused without blocking


class TestDeferredCommit:
    def test_reads_run_ahead_of_commits(self, ring):
        for i in range(3):
            ring.put(bytes([i]) * 8)
        frames = [ring.read() for _ in range(3)]
        assert all(frame is not None for frame in frames)
        assert ring.used > 0  # nothing committed yet
        ring.commit(frames[-1])  # covers all three
        assert ring.used == 0

    def test_drain_backlog_returns_uncommitted(self, ring):
        """The parent's crash-recovery read: everything at or past the
        consumer's last committed frame, in order."""
        for i in range(4):
            ring.put(bytes([64 + i]) * 4)
        first = ring.read()
        ring.commit(first)  # consumer committed only frame 0
        backlog = ring.drain_backlog()
        assert [bytes(b)[:1] for b in backlog] == [b"A", b"B", b"C"]

    def test_stats_snapshot(self, ring):
        ring.put(b"s" * 32)
        stats = ring.stats()
        assert stats["used"] > 0
        assert stats["capacity"] == ring.capacity
        ring.count_consumer_stall()
        assert ring.consumer_stalls == 1
        ring.beat(123.5)
        assert ring.heartbeat == 123.5


class TestStatsBlock:
    def test_cross_attachment_read_write(self):
        block = StatsBlock(("alpha", "beta"), create=True)
        try:
            block.write("alpha", 2.5)
            block.write("beta", 7.0)
            other = StatsBlock(("alpha", "beta"), name=block.name)
            assert other.read("alpha") == 2.5
            assert other.read_all() == {"alpha": 2.5, "beta": 7.0}
            other.detach()
        finally:
            block.detach()
            block.unlink()
