"""FRQ-D702 durability checker tests (positive and negative fixtures)."""

from tests.devtools.conftest import codes_of, lint_source


class TestAtomicWrites:
    def test_truncate_write_without_fsync_rename_flagged(self):
        diagnostics = lint_source(
            """
            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
            """,
            "src/repro/durability/checkpoint.py",
        )
        assert codes_of(diagnostics) == ["FRQ-D702"]

    def test_write_text_flagged(self):
        diagnostics = lint_source(
            """
            def save(path, data):
                path.write_text(data)
            """,
            "src/repro/durability/checkpoint.py",
        )
        assert codes_of(diagnostics) == ["FRQ-D702"]

    def test_atomic_write_path_clean(self):
        diagnostics = lint_source(
            """
            import os

            def save(path, tmp, data):
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            """,
            "src/repro/durability/checkpoint.py",
        )
        assert codes_of(diagnostics) == []

    def test_append_mode_not_flagged(self):
        diagnostics = lint_source(
            """
            def log(path, data):
                with open(path, "ab") as handle:
                    handle.write(data)
            """,
            "src/repro/durability/journal.py",
        )
        assert codes_of(diagnostics) == []

    def test_out_of_scope_package_not_flagged(self):
        diagnostics = lint_source(
            """
            def save(path, data):
                path.write_text(data)
            """,
            "src/repro/telemetry/exporters.py",
        )
        assert "FRQ-D702" not in codes_of(diagnostics)
