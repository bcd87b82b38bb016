"""FRQ-B801 batching checker tests (positive and negative fixtures)."""

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
