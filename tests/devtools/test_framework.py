"""The lint framework itself: suppression, registry, CLI."""

import pytest

from repro.devtools.diagnostics import (
    Diagnostic,
    directive_codes,
    is_suppressed,
    suppressed_codes,
)
from repro.devtools.lint import main
from repro.devtools.registry import all_codes
from tests.devtools.conftest import codes_of, lint_source


def _diag(path="src/repro/x.py", line=1, code="FRQ-H402"):
    return Diagnostic(path=path, line=line, col=1, code=code, message="m")


class TestSuppressionDirectives:
    def test_directive_parses_multiple_codes(self):
        line = "x = 1  # fresque-lint: disable=FRQ-C101, FRQ-X203 -- reviewed"
        assert directive_codes(line) == {"FRQ-C101", "FRQ-X203"}

    def test_directive_on_line_above_applies(self):
        lines = ["# fresque-lint: disable=FRQ-H402", "def f(x=[]):", "    pass"]
        assert "FRQ-H402" in suppressed_codes(lines, 2)

    def test_noncomment_line_above_does_not_apply(self):
        lines = ["y = 0  # fresque-lint: disable=FRQ-H402", "def f(x=[]):"]
        assert suppressed_codes(lines, 2) == frozenset()

    def test_disable_all(self):
        lines = ["def f(x=[]):  # fresque-lint: disable=all"]
        assert is_suppressed(_diag(line=1), lines)

    def test_inline_suppression_removes_finding(self):
        diagnostics = lint_source(
            """
            def collect(item, into=[]):  # fresque-lint: disable=FRQ-H402
                return into
            """
        )
        assert codes_of(diagnostics) == []


class TestRegistry:
    def test_checker_families_registered(self):
        families = {family for family, _ in all_codes().values()}
        assert families == {
            "concurrency",
            "crypto",
            "privacy-budget",
            "hygiene",
            "telemetry",
            "runtime",
        }

    def test_code_scheme(self):
        assert all(code.startswith("FRQ-") for code in all_codes())
        assert len(all_codes()) >= 12


class TestCli:
    @pytest.fixture
    def dirty_tree(self, tmp_path):
        package = tmp_path / "proj" / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (tmp_path / "proj" / "pyproject.toml").write_text("[project]\n")
        (package / "bad.py").write_text("def f(x=[]):\n    return x\n")
        return tmp_path / "proj"

    def test_findings_exit_1(self, dirty_tree, monkeypatch, capsys):
        monkeypatch.chdir(dirty_tree)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/core/bad.py:1:" in out
        assert "FRQ-H402" in out

    def test_select_filters_codes(self, dirty_tree, monkeypatch):
        monkeypatch.chdir(dirty_tree)
        assert main(["--select", "FRQ-C101", "src"]) == 0
        assert main(["--select", "FRQ-H402", "src"]) == 1

    def test_syntax_error_is_a_diagnostic(self, dirty_tree, monkeypatch, capsys):
        bad = dirty_tree / "src" / "repro" / "core" / "broken.py"
        bad.write_text("def f(:\n")
        monkeypatch.chdir(dirty_tree)
        assert main(["src"]) == 1
        assert "FRQ-E000" in capsys.readouterr().out

    def test_missing_path_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["definitely-not-here"]) == 2

    def test_unknown_select_code_exits_2(self, dirty_tree, monkeypatch, capsys):
        monkeypatch.chdir(dirty_tree)
        assert main(["--select", "FRQ-TYPO", "src"]) == 2
        assert "unknown code" in capsys.readouterr().err

    def test_list_codes(self, capsys):
        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        assert "FRQ-C101" in out and "FRQ-X204" in out
