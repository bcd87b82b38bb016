"""Checkpoint store tests: atomicity, pruning, corrupt fallback."""

import json

import pytest

from repro.durability.checkpoint import (
    FORMAT,
    CheckpointStore,
    atomic_write_json,
)


class TestAtomicWriteJson:
    def test_roundtrip(self, tmp_path):
        path = atomic_write_json(tmp_path / "doc.json", {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_no_temp_file_left(self, tmp_path):
        atomic_write_json(tmp_path / "doc.json", {"a": 1})
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrite_replaces_whole_document(self, tmp_path):
        atomic_write_json(tmp_path / "doc.json", {"long": "x" * 4096})
        path = atomic_write_json(tmp_path / "doc.json", {"short": 1})
        assert json.loads(path.read_text()) == {"short": 1}


class TestCheckpointStore:
    def test_latest_of_empty_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).latest() is None

    def test_save_then_latest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"watermark": 3})
        store.save({"watermark": 9})
        assert store.latest() == {"watermark": 9}

    def test_prunes_to_keep(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for i in range(5):
            store.save({"watermark": i})
        assert len(list(tmp_path.glob("checkpoint-*.json"))) == 2
        assert store.latest() == {"watermark": 4}

    def test_numbering_resumes_across_reopen(self, tmp_path):
        CheckpointStore(tmp_path).save({"watermark": 0})
        reopened = CheckpointStore(tmp_path)
        path = reopened.save({"watermark": 1})
        assert json.loads(path.read_text())["checkpoint"] == 1

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
         '{"format":4,"state":{"watermark":2}}'],
        ids=["list", "null", "number", "string", "unstamped", "format-1",
             "no-state", "format-3", "format-4"],
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
        path = CheckpointStore(tmp_path).save({"watermark": 5})
        assert json.loads(path.read_text()) == {
            "checkpoint": 0,
            "format": FORMAT,
            "state": {"watermark": 5},
        }

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep=0)
