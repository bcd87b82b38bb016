"""Checkpoint store tests: atomicity, pruning, corrupt fallback, and
the format-6 file (a framed JSON manifest plus packed binary sections)."""

import base64
import json

import pytest

from repro.durability.checkpoint import (
    FORMAT,
    CheckpointError,
    CheckpointStore,
    atomic_write_bytes,
    decode_checkpoint,
    encode_checkpoint,
)


class TestAtomicWriteBytes:
    def test_roundtrip(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "doc.bin", b"\x00\x01a")
        assert path.read_bytes() == b"\x00\x01a"

    def test_no_temp_file_left(self, tmp_path):
        atomic_write_bytes(tmp_path / "doc.bin", b"a")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrite_replaces_whole_document(self, tmp_path):
        atomic_write_bytes(tmp_path / "doc.bin", b"x" * 4096)
        path = atomic_write_bytes(tmp_path / "doc.bin", b"short")
        assert path.read_bytes() == b"short"


class TestCheckpointStore:
    def test_latest_of_empty_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).latest() is None

    def test_save_then_latest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"watermark": 3})
        store.save({"watermark": 9})
        assert store.latest() == {"watermark": 9}

    def test_prunes_to_keep(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for i in range(5):
            store.save({"watermark": i})
        assert len(list(tmp_path.glob("checkpoint-*.ckpt"))) == 2
        assert store.latest() == {"watermark": 4}

    def test_numbering_resumes_across_reopen(self, tmp_path):
        CheckpointStore(tmp_path).save({"watermark": 0})
        reopened = CheckpointStore(tmp_path)
        path = reopened.save({"watermark": 1})
        assert reopened.read(path)["checkpoint"] == 1

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"watermark": 1})
        newest = store.save({"watermark": 2})
        newest.write_text("{torn")
        assert store.latest() == {"watermark": 1}

    @pytest.mark.parametrize(
        "document",
        ["[1,2]", "null", "7", '"state"', '{"state":{"watermark":2}}',
         '{"format":1,"state":{"watermark":2}}', '{"format":2}',
         '{"format":3,"state":{"watermark":2}}',
         '{"format":4,"state":{"watermark":2}}',
         '{"checkpoint":1,"format":6,"state":{"watermark":2}}'],
        ids=["list", "null", "number", "string", "unstamped", "format-1",
             "no-state", "format-3", "format-4", "format-6"],
    )
    def test_wrong_shape_or_format_falls_back_to_previous(
        self, tmp_path, document
    ):
        """Valid JSON that is not a current-format checkpoint document —
        another shape altogether, or one an older collector wrote — is
        skipped exactly like a torn file, never raised."""
        store = CheckpointStore(tmp_path)
        store.save({"watermark": 1})
        store.save({"watermark": 2}).write_text(document)
        assert store.latest() == {"watermark": 1}

    def test_only_a_foreign_document_is_no_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"watermark": 2}).write_text("[1,2]")
        assert store.latest() is None

    def test_documents_are_stamped_with_the_format(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save({"watermark": 5})
        assert store.read(path) == {
            "checkpoint": 0,
            "format": FORMAT,
            "state": {"watermark": 5},
        }


#: A state holding every kind of value a collector checkpoint holds:
#: JSON scalars and containers, and ``bytes`` (packed columns) as dict
#: values at any depth, an empty one among them.
_STATE = {
    "watermark": 41,
    "pairs_sent": {"3": 17},
    "checking": {
        "publications": {"3": {"residents": b"\x00\x01\xff" * 50}},
        "empty_column": {"4": b""},
    },
    "dispatcher": {"fractions": b"\x7f" * 8, "values": b"\x00" * 16,
                   "dead": [1]},
}


def _sections_of(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of every framed part of a format-6 file."""
    parts, offset = [], 0
    while offset < len(data):
        length = int.from_bytes(data[offset : offset + 4], "little")
        parts.append((offset + 8, offset + 8 + length))
        offset += 8 + length
    return parts


class TestFormat6:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(_STATE)
        assert store.latest() == _STATE
        assert store.read(path) == {
            "checkpoint": 0, "format": FORMAT, "state": _STATE,
        }
        document = {"format": FORMAT, "state": _STATE}
        assert decode_checkpoint(encode_checkpoint(document)) == document

    def test_bytes_live_in_sections_not_in_the_manifest(self, tmp_path):
        data = encode_checkpoint({"format": FORMAT, "state": _STATE})
        parts = _sections_of(bytes(data))
        assert len(parts) == 1 + 4  # the manifest, then four sections
        start, end = parts[0]
        manifest = json.loads(data[start:end])
        assert manifest["sections"] == 4
        assert b"\x00\x01\xff" not in data[start:end]
        assert data[parts[1][0] : parts[1][1]] == b"\x00\x01\xff" * 50

    def _fall_back(self, tmp_path, spoil) -> None:
        store = CheckpointStore(tmp_path)
        store.save({"watermark": 1, "blob": b"older"})
        newest = store.save(_STATE)
        data = bytearray(newest.read_bytes())
        newest.write_bytes(bytes(spoil(data)))
        with pytest.raises(CheckpointError):
            store.read(newest)
        assert store.latest() == {"watermark": 1, "blob": b"older"}

    def test_flipped_manifest_byte_falls_back(self, tmp_path):
        def flip(data):
            data[8 + 3] ^= 0x01  # inside the manifest JSON
            return data

        self._fall_back(tmp_path, flip)

    @pytest.mark.parametrize("section", range(4))
    def test_flipped_section_byte_falls_back(self, tmp_path, section):
        def flip(data):
            start, end = _sections_of(bytes(data))[1 + section]
            if start == end:  # the empty section: break its length word
                data[start - 8] ^= 0x01
            else:
                data[(start + end) // 2] ^= 0x80
            return data

        self._fall_back(tmp_path, flip)

    @pytest.mark.parametrize("cut", [1, 7, 8, 50])
    def test_truncated_tail_falls_back(self, tmp_path, cut):
        self._fall_back(tmp_path, lambda data: data[:-cut])

    def test_trailing_bytes_fall_back(self, tmp_path):
        self._fall_back(tmp_path, lambda data: data + b"\x00")

    def test_unknown_format_number_falls_back(self, tmp_path):
        self._fall_back(
            tmp_path,
            lambda data: encode_checkpoint(
                {"checkpoint": 1, "format": FORMAT + 1, "state": _STATE}
            ),
        )

    def test_format_6_file_falls_back(self, tmp_path):
        """Format 6 had this framing; its dispatcher kept in-flight
        dummies as JSON records and its merger an early-removed buffer."""
        state = {**_STATE, "dispatcher": {"batch": [
            ["line", "p1\t1\t375\tnone"],
            ["record", {"values": ["", 0, 375, ""], "flag": -1}],
        ]}, "merger": {"publications": {}, "early_removed": {}}}
        self._fall_back(
            tmp_path,
            lambda data: encode_checkpoint(
                {"checkpoint": 1, "format": 6, "state": state}
            ),
        )

    def test_format_7_file_falls_back(self, tmp_path):
        """Format 7 had this framing; its checking state had no
        ``next_seq``, so its checking node would wait for seq 0."""
        state = {**_STATE, "checking": {
            "publications": {}, "dead_nodes": [], "finalised_floor": -1,
        }}
        self._fall_back(
            tmp_path,
            lambda data: encode_checkpoint(
                {"checkpoint": 1, "format": 7, "state": state}
            ),
        )

    def test_format_5_json_document_falls_back(self, tmp_path):
        """Format 5 was one JSON document, its packed columns base64."""
        residents = base64.b64encode(b"\x00\x01\xff" * 50).decode("ascii")
        document = {
            "checkpoint": 1, "format": 5,
            "state": {"watermark": 2, "checking": {"publications": {
                "3": {"residents": residents},
            }}},
        }
        self._fall_back(
            tmp_path, lambda data: json.dumps(document).encode("utf-8")
        )

    def test_format_1_json_document_falls_back(self, tmp_path):
        """Format 1 was unstamped JSON, a resident pair an object each."""
        document = {"checkpoint": 1, "state": {"watermark": 2, "checking": {
            "publications": {"3": {"residents": [
                {"pub": 3, "leaf": 5, "dummy": False,
                 "enc": {"leaf": 5, "tag": None, "pub": 3, "ct": "AAE="}},
            ]}},
        }}}
        self._fall_back(
            tmp_path, lambda data: json.dumps(document).encode("utf-8")
        )
