"""fresque-lint command line.

Usage::

    python -m repro.devtools.lint [paths...]          # default: src
    python -m repro.devtools.lint --list-codes
    python -m repro.devtools.lint --select FRQ-C101 src
    python -m repro.devtools.lint --update-baseline src

Exit status: 0 when every finding is inline-suppressed or baselined,
1 when new findings exist, 2 on usage errors.

One pass: every registered :class:`~repro.devtools.registry.Checker`
sees each parsed file on its own, so linting a subset of files gives
the same findings for those files as linting the tree.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable

from repro.devtools.baseline import Baseline, render_baseline
from repro.devtools.diagnostics import Diagnostic, is_suppressed
from repro.devtools.registry import (
    ModuleInfo,
    all_checkers,
    all_codes,
    iter_diagnostics,
)

DEFAULT_BASELINE = ".fresque-lint-baseline"


def _repo_root(start: Path) -> Path:
    """Closest ancestor containing ``pyproject.toml`` (or ``start``)."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return start


def discover_files(paths: Iterable[Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def load_module(path: Path, root: Path) -> ModuleInfo | Diagnostic:
    """Parse one file; a syntax error becomes a diagnostic, not a crash."""
    try:
        display = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        display = path.as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return Diagnostic(
            path=display,
            line=error.lineno or 1,
            col=(error.offset or 1),
            code="FRQ-E000",
            message=f"syntax error: {error.msg}",
        )
    return ModuleInfo(
        path=path,
        display_path=display,
        tree=tree,
        source_lines=source.splitlines(),
    )


def run_lint(
    paths: list[Path],
    root: Path,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Diagnostic]:
    """All unsuppressed diagnostics for ``paths`` (baseline not applied)."""

    def wanted(diagnostic: Diagnostic) -> bool:
        if select and diagnostic.code not in select:
            return False
        if ignore and diagnostic.code in ignore:
            return False
        return True

    checkers = all_checkers()
    diagnostics: list[Diagnostic] = []
    for path in discover_files(paths):
        module = load_module(path, root)
        if isinstance(module, Diagnostic):
            diagnostics.append(module)
            continue
        for diagnostic in iter_diagnostics(checkers, module):
            if wanted(diagnostic) and not is_suppressed(
                diagnostic, module.source_lines
            ):
                diagnostics.append(diagnostic)
    return sorted(set(diagnostics))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Domain-aware static analysis for the FRESQUE repro.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} at the repo root)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to absorb all current findings",
    )
    parser.add_argument(
        "--list-codes", action="store_true", help="list diagnostic codes"
    )
    parser.add_argument(
        "--select", action="append", default=[], help="only these codes"
    )
    parser.add_argument(
        "--ignore", action="append", default=[], help="skip these codes"
    )
    args = parser.parse_args(argv)

    if args.list_codes:
        for code, (family, description) in sorted(all_codes().items()):
            print(f"{code}  [{family}] {description}")
        return 0

    known_codes = set(all_codes()) | {"FRQ-E000"}
    unknown = (set(args.select) | set(args.ignore)) - known_codes
    if unknown:
        print(
            f"error: unknown code(s): {', '.join(sorted(unknown))} "
            f"(see --list-codes)",
            file=sys.stderr,
        )
        return 2

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2
    root = _repo_root(Path.cwd())
    baseline_path = (
        Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
    )

    diagnostics = run_lint(
        paths,
        root,
        select=set(args.select) or None,
        ignore=set(args.ignore) or None,
    )

    if args.update_baseline:
        baseline_path.write_text(render_baseline(diagnostics))
        print(
            f"wrote {baseline_path} with {len(diagnostics)} "
            f"grandfathered finding(s)"
        )
        return 0

    try:
        baseline = (
            Baseline() if args.no_baseline else Baseline.load(baseline_path)
        )
    except ValueError as error:
        print(f"error: {baseline_path}: {error}", file=sys.stderr)
        return 2
    fresh = [d for d in diagnostics if not baseline.absorbs(d)]

    for diagnostic in fresh:
        print(diagnostic.render())
    if not (args.select or args.ignore):
        # With a code filter active the baseline legitimately under-fires,
        # so staleness would be noise.
        for path, code, allowed, seen in baseline.stale_entries():
            print(
                f"warning: stale baseline entry {path}:{code} "
                f"(allows {allowed}, found {seen}) — delete it",
                file=sys.stderr,
            )
    if fresh:
        print(
            f"\n{len(fresh)} finding(s). Fix them, suppress inline with "
            f"'# fresque-lint: disable=CODE -- why', or baseline with "
            f"--update-baseline.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
