"""FRQ-B8xx batching checker tests (positive and negative fixtures)."""

from tests.devtools.conftest import codes_of, lint_source


class TestScalarLoopInBatchPath:
    def test_per_record_encrypt_in_batch_loop_flagged(self):
        diagnostics = lint_source(
            """
            class Node:
                def on_raw_batch(self, message):
                    out = []
                    for item in message.items:
                        out.append(self.cipher.encrypt(item))
                    return out
            """
        )
        assert codes_of(diagnostics) == ["FRQ-B801"]

    def test_per_record_sendall_in_batch_loop_flagged(self):
        diagnostics = lint_source(
            """
            def send_batch(sock, frames):
                for frame in frames:
                    sock.sendall(frame)
            """
        )
        assert codes_of(diagnostics) == ["FRQ-B801"]

    def test_batch_counterpart_outside_loop_clean(self):
        diagnostics = lint_source(
            """
            class Node:
                def on_raw_batch(self, message):
                    encrypted = self.cipher.encrypt_batch(
                        [self.parse(item) for item in message.items]
                    )
                    return encrypted
            """
        )
        assert codes_of(diagnostics) == []

    def test_scalar_call_in_non_batch_function_clean(self):
        diagnostics = lint_source(
            """
            class Node:
                def on_raw(self, message):
                    for attempt in range(3):
                        self.cipher.encrypt(message.line)
            """
        )
        assert codes_of(diagnostics) == []

    def test_unrelated_loop_calls_in_batch_function_clean(self):
        diagnostics = lint_source(
            """
            def split_batch(pairs):
                by_shard = {}
                for pair in pairs:
                    by_shard.setdefault(pair.shard, []).append(pair)
                return by_shard
            """
        )
        assert codes_of(diagnostics) == []

    def test_inline_disable_suppresses(self):
        diagnostics = lint_source(
            """
            def drain_batch(sock, frames):
                for frame in frames:
                    # fresque-lint: disable=FRQ-B801 -- legacy peer, one frame at a time
                    sock.sendall(frame)
            """
        )
        assert codes_of(diagnostics) == []


class TestCloseFlush:
    def test_end_publication_without_flush_flagged(self):
        diagnostics = lint_source(
            """
            class Dispatcher:
                def _flush(self, reason):
                    return list(self._batch)

                def end_publication(self):
                    return [("checking", "publishing")]
            """
        )
        assert codes_of(diagnostics) == ["FRQ-B802"]

    def test_end_publication_with_close_flush_clean(self):
        diagnostics = lint_source(
            """
            class Dispatcher:
                def _flush(self, reason):
                    return list(self._batch)

                def end_publication(self):
                    out = self._flush("close")
                    out.append(("checking", "publishing"))
                    return out
            """
        )
        assert codes_of(diagnostics) == []

    def test_class_without_accumulator_clean(self):
        diagnostics = lint_source(
            """
            class Dispatcher:
                def end_publication(self):
                    return [("checking", "publishing")]
            """
        )
        assert codes_of(diagnostics) == []

    def test_class_without_end_publication_clean(self):
        diagnostics = lint_source(
            """
            class Buffer:
                def flush(self):
                    return list(self._items)
            """
        )
        assert codes_of(diagnostics) == []


class TestBatchSizeMutation:
    def test_direct_assignment_flagged(self):
        diagnostics = lint_source(
            """
            class Dispatcher:
                def tune(self, size):
                    self._batch_size = size
            """
        )
        assert codes_of(diagnostics) == ["FRQ-B803"]

    def test_augmented_assignment_flagged(self):
        diagnostics = lint_source(
            """
            class Dispatcher:
                def grow(self):
                    self._batch_size += 16
            """
        )
        assert codes_of(diagnostics) == ["FRQ-B803"]

    def test_annotated_assignment_flagged(self):
        diagnostics = lint_source(
            """
            class Dispatcher:
                def __init__(self):
                    self._batch_size: int = 64
            """
        )
        assert codes_of(diagnostics) == ["FRQ-B803"]

    def test_controller_module_is_exempt(self):
        diagnostics = lint_source(
            """
            class AdaptiveBatchController:
                def _adjust(self):
                    self._batch_size = max(1, self._batch_size // 2)
            """,
            display_path="src/repro/core/flow.py",
        )
        assert codes_of(diagnostics) == []

    def test_read_and_local_variable_clean(self):
        diagnostics = lint_source(
            """
            class Dispatcher:
                def snapshot(self):
                    _batch_size = self.flow.batch_size
                    return {"size": _batch_size}
            """
        )
        assert codes_of(diagnostics) == []

    def test_bare_annotation_clean(self):
        diagnostics = lint_source(
            """
            class Controller:
                _batch_size: int
            """
        )
        assert codes_of(diagnostics) == []
