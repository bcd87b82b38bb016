"""Tier-1 gate: the shipped source tree must lint clean.

``src/`` has no finding; a finding that is a deliberate design is
suppressed inline, and the directive says why.  Every code a directive
or a document names is one the linter still registers, and every code
the linter registers has its row in docs/STATIC_ANALYSIS.md.
"""

import re
from pathlib import Path

from repro.devtools.diagnostics import directive_codes
from repro.devtools.lint import run_lint
from repro.devtools.registry import all_codes

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_lints_clean():
    # The wall-clock budget of the full lint lives on the CI step
    # (``timeout`` on ``fresque-lint``), where host load is controlled;
    # tier-1 asserts findings only.
    diagnostics = run_lint([REPO_ROOT / "src"], REPO_ROOT)
    assert diagnostics == [], "lint findings:\n" + "\n".join(
        d.render() for d in diagnostics
    )


def test_every_directive_says_why():
    """A suppression is a claim that the finding is a design; the text
    after ``--`` is that claim."""
    unjustified = [
        f"{path.relative_to(REPO_ROOT)}:{number}"
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if directive_codes(line)
        and not re.search(r"disable=[^#]*?\s--\s*\S", line)
    ]
    assert not unjustified, f"directives without '-- why': {unjustified}"


def test_every_registered_code_is_documented():
    document = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text()
    rows = set(re.findall(r"^\| (FRQ-[A-Z]\d+) \|", document, re.MULTILINE))
    assert set(all_codes()) <= rows, (
        f"codes without a STATIC_ANALYSIS.md row: "
        f"{sorted(set(all_codes()) - rows)}"
    )


def test_every_named_code_is_registered():
    """``is_suppressed`` never checks a directive's codes against the
    registry, so a ``disable=`` naming a deleted rule is silently inert
    and a doc row for it dangles — catch both here."""
    known = set(all_codes()) | {"FRQ-E000"}
    files = [
        REPO_ROOT / "README.md",
        *(REPO_ROOT / "src").rglob("*.py"),
        *(REPO_ROOT / "docs").rglob("*.md"),
    ]
    unknown = {
        f"{path.relative_to(REPO_ROOT)}: {code}"
        for path in files
        for code in re.findall(r"FRQ-[A-Z]\d+\b", path.read_text())
        if code not in known
    }
    assert not unknown, f"unregistered codes named: {sorted(unknown)}"
