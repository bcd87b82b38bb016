"""FRQ-M9xx: shared-memory raw-buffer containment and segment lifecycle."""

from tests.devtools.conftest import codes_of


class TestRawBufWrites:
    def test_subscript_store_outside_ring_flagged(self, lint):
        diagnostics = lint(
            """
            def poke(shm):
                shm.buf[0:4] = b"\\x00" * 4
            """,
            display_path="src/repro/runtime/shm/workers.py",
        )
        assert "FRQ-M901" in codes_of(diagnostics)

    def test_pack_into_on_raw_buf_flagged(self, lint):
        diagnostics = lint(
            """
            import struct

            class Thing:
                def write(self, value):
                    struct.pack_into("<Q", self._shm.buf, 0, value)
            """,
            display_path="src/repro/runtime/shm/cluster.py",
        )
        assert "FRQ-M901" in codes_of(diagnostics)

    def test_ring_module_is_exempt(self, lint):
        diagnostics = lint(
            """
            import struct

            class RingBuffer:
                def _store(self, offset, value):
                    struct.pack_into("<Q", self._shm.buf, offset, value)
                    self._shm.buf[8:16] = b"\\x00" * 8
            """,
            display_path="src/repro/runtime/shm/ring.py",
        )
        assert "FRQ-M901" not in codes_of(diagnostics)

    def test_unrelated_buf_attribute_ignored(self, lint):
        diagnostics = lint(
            """
            def fill(parser):
                parser.buf[0] = "x"  # not a shared-memory mapping
            """
        )
        assert "FRQ-M901" not in codes_of(diagnostics)

    def test_reads_are_not_writes(self, lint):
        diagnostics = lint(
            """
            def peek(shm):
                return bytes(shm.buf[:8])
            """,
            display_path="src/repro/runtime/shm/workers.py",
        )
        assert "FRQ-M901" not in codes_of(diagnostics)


class TestSegmentLifecycle:
    def test_attach_without_close_flagged(self, lint):
        diagnostics = lint(
            """
            from multiprocessing import shared_memory

            def attach(name):
                return shared_memory.SharedMemory(name=name)
            """
        )
        assert "FRQ-M902" in codes_of(diagnostics)

    def test_create_without_unlink_flagged(self, lint):
        diagnostics = lint(
            """
            from multiprocessing import shared_memory

            class Segment:
                def __init__(self, size):
                    self._shm = shared_memory.SharedMemory(
                        create=True, size=size
                    )

                def detach(self):
                    self._shm.close()
            """
        )
        codes = codes_of(diagnostics)
        assert "FRQ-M903" in codes
        assert "FRQ-M902" not in codes  # close() is present

    def test_paired_lifecycle_is_clean(self, lint):
        diagnostics = lint(
            """
            from multiprocessing import shared_memory

            class Segment:
                def __init__(self, size):
                    self._shm = shared_memory.SharedMemory(
                        create=True, size=size
                    )

                def detach(self):
                    self._shm.close()

                def unlink(self):
                    self._shm.unlink()
            """
        )
        codes = codes_of(diagnostics)
        assert "FRQ-M902" not in codes and "FRQ-M903" not in codes

    def test_attach_only_needs_no_unlink(self, lint):
        diagnostics = lint(
            """
            from multiprocessing import shared_memory

            def peek(name):
                shm = shared_memory.SharedMemory(name=name)
                try:
                    return bytes(shm.buf[:8])
                finally:
                    shm.close()
            """
        )
        assert "FRQ-M903" not in codes_of(diagnostics)
