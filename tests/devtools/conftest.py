"""Shared helpers for the fresque-lint test suite."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.devtools.diagnostics import is_suppressed
from repro.devtools.registry import ModuleInfo, all_checkers, iter_diagnostics


def lint_source(source: str, display_path: str = "src/repro/core/thing.py"):
    """Run every registered checker over an inline source fixture.

    ``display_path`` is the virtual location of the fixture — it drives
    the path-scoped rules (``crypto/``, ``simulation/``, ``privacy/``).
    Inline ``fresque-lint: disable`` directives are honored, as in the
    CLI.
    """
    source = textwrap.dedent(source)
    module = ModuleInfo(
        path=Path(display_path),
        display_path=display_path,
        tree=ast.parse(source),
        source_lines=source.splitlines(),
    )
    return [
        diagnostic
        for diagnostic in iter_diagnostics(all_checkers(), module)
        if not is_suppressed(diagnostic, module.source_lines)
    ]


def codes_of(diagnostics):
    return sorted(diagnostic.code for diagnostic in diagnostics)


@pytest.fixture
def lint():
    return lint_source
