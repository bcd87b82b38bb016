"""Tier-1 gate: the shipped source tree must lint clean.

This is the enforcement half of the tentpole — ``src/`` stays free of
new FRQ findings modulo the committed baseline, the baseline itself
stays honest (no stale entries, every entry justified), and every code
a directive or a document names is one the linter still registers.
"""

import re
from pathlib import Path

from repro.devtools.baseline import Baseline
from repro.devtools.lint import DEFAULT_BASELINE, run_lint
from repro.devtools.registry import all_codes

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_lints_clean_modulo_baseline():
    # The wall-clock budget of the full lint lives on the CI step
    # (``timeout`` on ``fresque-lint``), where host load is controlled;
    # tier-1 asserts findings only.
    diagnostics = run_lint([REPO_ROOT / "src"], REPO_ROOT)
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    fresh = [d for d in diagnostics if not baseline.absorbs(d)]
    assert fresh == [], "new lint findings:\n" + "\n".join(
        d.render() for d in fresh
    )
    assert baseline.stale_entries() == [], (
        "stale baseline entries — delete them: "
        f"{baseline.stale_entries()}"
    )


def test_every_baseline_entry_is_justified():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    for key, count in baseline.allowed.items():
        assert key in baseline.comments, (
            f"baseline entry {key[0]}:{key[1]}:{count} has no justification "
            f"comment"
        )


def test_baseline_entries_are_sorted():
    entries = [
        line
        for line in (REPO_ROOT / DEFAULT_BASELINE).read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert entries == sorted(entries), (
        "baseline entries must stay sorted so diffs are minimal — "
        "reorder the file"
    )


def test_every_named_code_is_registered():
    """``is_suppressed`` never checks a directive's codes against the
    registry, so a ``disable=`` naming a deleted rule is silently inert
    and a doc row for it dangles — catch both here."""
    known = set(all_codes()) | {"FRQ-E000"}
    files = [
        REPO_ROOT / "README.md",
        REPO_ROOT / DEFAULT_BASELINE,
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
