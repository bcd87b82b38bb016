"""Checker protocol and the pluggable checker registry.

A checker is a class with a ``codes`` table (diagnostic code → one-line
description) and a ``check(module)`` generator.  Registering is one
decorator::

    @register
    class MyChecker(Checker):
        name = "my-family"
        codes = {"FRQ-Znnn": "something the repo must never do"}

        def check(self, module):
            ...

The CLI instantiates every registered checker and feeds it each parsed
module; path-scoped rules use :meth:`ModuleInfo.in_package`.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.devtools.diagnostics import Diagnostic


@dataclass
class ModuleInfo:
    """One parsed source module handed to every checker.

    Parameters
    ----------
    path:
        Filesystem path of the module.
    display_path:
        The (usually repo-relative, posix-style) path used in diagnostics.
    tree:
        Parsed ``ast.Module``.
    source_lines:
        Source split into lines (for suppression directives).
    """

    path: Path
    display_path: str
    tree: ast.Module
    source_lines: list[str] = field(default_factory=list)

    @property
    def package_parts(self) -> tuple[str, ...]:
        """Path segments below the ``repro`` package root.

        For ``src/repro/crypto/cipher.py`` this is ``("crypto",
        "cipher.py")``; for paths outside a ``repro`` tree it falls back
        to the display path's own segments, so path-scoped checkers still
        behave sensibly on fixture files.
        """
        parts = Path(self.display_path).parts
        if "repro" in parts:
            return tuple(parts[parts.index("repro") + 1 :])
        return tuple(parts)

    def in_package(self, *names: str) -> bool:
        """Whether the module lives under any of the given subpackages."""
        parts = self.package_parts
        return any(name in parts[:-1] for name in names)

    def is_module(self, *relpaths: str) -> bool:
        """Whether the module is exactly one of ``repro``-relative paths
        such as ``"core/config.py"``."""
        joined = "/".join(self.package_parts)
        return joined in relpaths


class Checker(ABC):
    """Base class for one per-module diagnostic family."""

    #: Short family name (used by ``--list-codes``).
    name: str = ""

    #: Diagnostic code → one-line description.
    codes: dict[str, str] = {}

    @abstractmethod
    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        """Yield diagnostics for one module."""

    def diagnostic(
        self, module: ModuleInfo, node: ast.AST, code: str, message: str
    ) -> Diagnostic:
        """Build a diagnostic anchored at ``node``."""
        if code not in self.codes:
            raise ValueError(f"{type(self).__name__} does not own code {code}")
        return Diagnostic(
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


_CHECKERS: list[type[Checker]] = []


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    duplicate = set(cls.codes) & {
        code for existing in _CHECKERS for code in existing.codes
    }
    if duplicate:
        raise ValueError(f"diagnostic codes already registered: {duplicate}")
    _CHECKERS.append(cls)
    return cls


def all_checkers() -> list[Checker]:
    """Fresh instances of every checker (importing built-ins)."""
    # Importing the package registers the built-in checker families.
    import repro.devtools.checkers  # noqa: F401

    return [cls() for cls in _CHECKERS]


def all_codes() -> dict[str, tuple[str, str]]:
    """Every known code → (family name, description)."""
    import repro.devtools.checkers  # noqa: F401

    return {
        code: (cls.name, description)
        for cls in _CHECKERS
        for code, description in cls.codes.items()
    }


def iter_diagnostics(
    checkers: Iterable[Checker], module: ModuleInfo
) -> Iterator[Diagnostic]:
    """Run every checker over one module."""
    for checker in checkers:
        yield from checker.check(module)
