"""Write-ahead journal tests: framing, torn tails, fuzzed corruption."""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.journal import (
    MAX_PAYLOAD_BYTES,
    JournalCorrupt,
    WriteAheadJournal,
    _frame,
    scan_frames,
)
from repro.index.domain import AttributeDomain
from repro.index.perturb import draw_noise_plan
from repro.index.tree import IndexTree

import random


def _plan():
    tree = IndexTree(AttributeDomain(0, 100, 10), fanout=4)
    return draw_noise_plan(tree, 1.0, rng=random.Random(7))


@pytest.fixture
def journal(tmp_path):
    with WriteAheadJournal(tmp_path / "journal.wal") as journal:
        yield journal


class TestAppendReplay:
    def test_lifecycle_roundtrip(self, journal):
        plan = _plan()
        journal.append_open(0, plan, 0.5)
        journal.append_raw_batch(0, ["a,b,c"])
        journal.append_raw_batch(0, ["d,e,f"])
        journal.append_close(0)
        journal.append_commit(0)
        records = list(journal.replay())
        assert [r.type for r in records] == [
            "open", "rawb", "rawb", "close", "commit",
        ]
        assert [r.seq for r in records] == [0, 1, 2, 3, 4]
        assert records[0].plan.node_noise == plan.node_noise
        assert records[0].epsilon == 0.5
        assert records[1].lines == ("a,b,c",)

    def test_replay_suffix(self, journal):
        journal.append_open(0, _plan(), 1.0)
        for i in range(5):
            journal.append_raw_batch(0, [f"line-{i}"])
        suffix = list(journal.replay(after_seq=3))
        assert [r.lines for r in suffix] == [("line-3",), ("line-4",)]

    def test_entries_and_bytes_grow(self, journal):
        assert journal.entries == 0
        journal.append_raw_batch(0, ["x"])
        assert journal.entries == 1
        assert journal.byte_size > 0


class TestCrashRecovery:
    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "journal.wal"
        with WriteAheadJournal(path) as journal:
            journal.append_raw_batch(0, ["kept"])
            journal.append_raw_batch(0, ["also-kept"])
        # Simulate a crash mid-append: half a frame at the tail.
        whole = _frame(b'{"t":"rawb","pub":0,"lines":["torn"]}')
        with open(path, "ab") as handle:
            handle.write(whole[: len(whole) // 2])
        with WriteAheadJournal(path) as reopened:
            assert reopened.entries == 2
            assert [r.lines for r in reopened.replay()] == [
                ("kept",),
                ("also-kept",),
            ]
        # The torn bytes are gone from disk, not just skipped.
        payloads, valid = scan_frames(path.read_bytes())
        assert len(payloads) == 2
        assert valid == path.stat().st_size

    def test_appends_after_torn_tail_recovery(self, tmp_path):
        path = tmp_path / "journal.wal"
        with WriteAheadJournal(path) as journal:
            journal.append_raw_batch(0, ["first"])
        with open(path, "ab") as handle:
            handle.write(b"\x99\x00\x00")  # torn header
        with WriteAheadJournal(path) as reopened:
            reopened.append_raw_batch(0, ["second"])
            assert [r.lines for r in reopened.replay()] == [
                ("first",),
                ("second",),
            ]

    def test_mid_file_crc_mismatch_raises(self, tmp_path):
        path = tmp_path / "journal.wal"
        with WriteAheadJournal(path) as journal:
            journal.append_raw_batch(0, ["aaaa"])
            journal.append_raw_batch(0, ["bbbb"])
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # flip a payload byte of the first frame
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorrupt):
            WriteAheadJournal(path)

    def test_oversized_announced_length_raises(self, tmp_path):
        path = tmp_path / "journal.wal"
        payload = b"{}"
        frame = struct.Struct("<II").pack(
            MAX_PAYLOAD_BYTES + 1, zlib.crc32(payload)
        ) + payload
        path.write_bytes(frame)
        with pytest.raises(JournalCorrupt):
            WriteAheadJournal(path)


class TestFramingFuzz:
    """Satellite: random tail damage is truncation or a loud error —
    never a silently corrupt replay."""

    @staticmethod
    def _original_frames():
        payloads = [
            b'{"t":"rawb","pub":0,"lines":["%d"]}' % i for i in range(6)
        ]
        return payloads, b"".join(_frame(p) for p in payloads)

    @given(cut=st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_truncation_yields_clean_prefix(self, cut):
        payloads, data = self._original_frames()
        damaged = data[: min(cut, len(data))]
        recovered, valid = scan_frames(damaged)
        assert recovered == payloads[: len(recovered)]
        assert valid <= len(damaged)

    @given(
        position=st.integers(min_value=0, max_value=1000),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_flip_never_silently_corrupts(self, position, bit):
        payloads, data = self._original_frames()
        position %= len(data)
        damaged = bytearray(data)
        damaged[position] ^= 1 << bit
        try:
            recovered, _ = scan_frames(bytes(damaged))
        except JournalCorrupt:
            return  # loud failure: acceptable
        # Quiet success must be a clean prefix of the original stream.
        assert recovered == payloads[: len(recovered)]


class TestSyncCadence:
    """``sync_every`` counts appends: a ``rawb`` frame is one slot of
    the fsync cadence whether it holds one line or a whole batch."""

    def _fsyncs(self, tmp_path, monkeypatch, chunks) -> int:
        import repro.durability.journal as journal_module

        calls = []
        real = journal_module.os.fsync
        with WriteAheadJournal(tmp_path / "j.wal", sync_every=4) as journal:
            monkeypatch.setattr(
                journal_module.os, "fsync",
                lambda fd: (calls.append(fd), real(fd)),
            )
            for chunk in chunks:
                journal.append_raw_batch(0, chunk)
            monkeypatch.setattr(journal_module.os, "fsync", real)
        return len(calls)

    def test_one_slot_per_rawb_frame(self, tmp_path, monkeypatch):
        batch = [f"line-{index}" for index in range(256)]
        assert self._fsyncs(tmp_path / "a", monkeypatch, [batch] * 3) == 0
        assert self._fsyncs(tmp_path / "b", monkeypatch, [batch] * 4) == 1
        assert self._fsyncs(tmp_path / "c", monkeypatch, [batch] * 9) == 2

    def test_single_lines_fill_the_cadence_as_fast(self, tmp_path, monkeypatch):
        lines = [[f"line-{index}"] for index in range(8)]
        assert self._fsyncs(tmp_path / "a", monkeypatch, lines[:3]) == 0
        assert self._fsyncs(tmp_path / "b", monkeypatch, lines) == 2
