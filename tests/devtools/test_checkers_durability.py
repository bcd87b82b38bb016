"""FRQ-D7xx durability checker tests (positive and negative fixtures)."""

from tests.devtools.conftest import codes_of, lint_source

_DURABILITY_PATH = "src/repro/durability/system.py"


class TestJournalOrdering:
    def test_send_before_append_flagged(self):
        diagnostics = lint_source(
            """
            class Driver:
                def ingest(self, line):
                    self._send_all(self.dispatcher.on_raw(line))
                    self.journal.append_raw_batch(self.publication, [line])
            """,
            _DURABILITY_PATH,
        )
        assert codes_of(diagnostics) == ["FRQ-D701"]

    def test_bare_send_of_a_prepared_outbox_flagged(self):
        """The driver's single send method is itself a pipeline call: a
        rename of it must not blind the rule (no ``.on_raw`` in sight)."""
        diagnostics = lint_source(
            """
            class Driver:
                def ingest(self, line, outbox):
                    self._send_all(outbox)
                    self.journal.append_raw_batch(self.publication, [line])
            """,
            _DURABILITY_PATH,
        )
        assert codes_of(diagnostics) == ["FRQ-D701"]

    def test_chunk_dispatched_before_its_batch_append_flagged(self):
        """``append_raw_batch`` is the only raw-line append there is: a
        chunk loop that feeds the pipeline ahead of it must be seen."""
        diagnostics = lint_source(
            """
            class Driver:
                def _ingest_chunk(self, lines):
                    for line in lines:
                        self._send_all(self.dispatcher.on_raw(line))
                    self._last_seq = self.journal.append_raw_batch(
                        self.dispatcher.publication, lines
                    )
            """,
            _DURABILITY_PATH,
        )
        assert codes_of(diagnostics) == ["FRQ-D701"]

    def test_append_first_clean(self):
        diagnostics = lint_source(
            """
            class Driver:
                def ingest(self, line):
                    self.journal.append_raw_batch(self.publication, [line])
                    self._send_all(self.dispatcher.on_raw(line))
            """,
            _DURABILITY_PATH,
        )
        assert codes_of(diagnostics) == []

    def test_pipeline_only_function_not_flagged(self):
        diagnostics = lint_source(
            """
            class Driver:
                def _replay_raw_batch(self, lines):
                    for line in lines:
                        self._send_all(self.dispatcher.on_raw(line))
            """,
            _DURABILITY_PATH,
        )
        assert codes_of(diagnostics) == []

    def test_out_of_scope_package_not_flagged(self):
        diagnostics = lint_source(
            """
            class Driver:
                def ingest(self, line):
                    self._send_all(self.dispatcher.on_raw(line))
                    self.journal.append_raw_batch(0, [line])
            """,
            "src/repro/core/system.py",
        )
        assert "FRQ-D701" not in codes_of(diagnostics)


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


class TestUnledgeredSpends:
    def test_budget_spend_outside_privacy_flagged(self):
        diagnostics = lint_source(
            """
            class Driver:
                def open_publication(self):
                    self._budget.spend(0.5, label="publication")
            """,
            _DURABILITY_PATH,
        )
        assert "FRQ-D703" in codes_of(diagnostics)

    def test_spend_inside_privacy_package_allowed(self):
        diagnostics = lint_source(
            """
            class PublicationAccountant:
                def grant(self):
                    self._budget.spend(self._share, label="x")
            """,
            "src/repro/privacy/accountant.py",
        )
        assert "FRQ-D703" not in codes_of(diagnostics)

    def test_non_budget_receiver_not_flagged(self):
        diagnostics = lint_source(
            """
            def checkout(cart):
                cart.spend(3)
            """,
            "src/repro/core/system.py",
        )
        assert "FRQ-D703" not in codes_of(diagnostics)
