"""Durability-protocol checker (FRQ-D702).

The crash-safety of :mod:`repro.durability` rests on mechanical
disciplines that are easy to break in review-invisible ways.  Two of
them are observable and pinned by the crash drills in
``tests/durability`` (journal-before-dispatch; every ε spend goes
through the ledgered accountant, or the recovered budget differs from
the crash-free one).  The third only shows when a crash tears a write:

* ``FRQ-D702`` — a truncate-mode file write (``open(..., "w"/"wb")``,
  ``write_text``, ``write_bytes``) in the ``durability`` package inside a
  function that never calls both ``os.fsync`` and ``os.replace``.
  Durable state must go through the write-temp + fsync + atomic-rename
  path (:func:`~repro.durability.checkpoint.atomic_write_json`); a plain
  overwrite torn by a crash destroys the *old* good copy too.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.astutil import call_name, iter_functions
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

#: Truncate-mode ``open()`` modes that clobber the previous contents.
_TRUNCATE_MODES = {"w", "wb", "w+", "wb+", "w+b"}

#: Path methods that rewrite a file in place.
_REWRITE_METHODS = (".write_text", ".write_bytes")


def _is_truncate_write(call: ast.Call) -> bool:
    """Whether ``call`` overwrites a file (vs appending or reading)."""
    name = call_name(call)
    if name is None:
        return False
    if name.endswith(_REWRITE_METHODS):
        return True
    if name.split(".")[-1] != "open":
        return False
    mode = None
    if len(call.args) >= 2:
        mode = call.args[1]
    else:
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and mode.value in _TRUNCATE_MODES
    )


@register
class DurabilityChecker(Checker):
    """Keep durable files replaced atomically."""

    name = "durability"
    codes = {
        "FRQ-D702": "durable file overwritten without fsync + atomic rename",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        if not module.in_package("durability"):
            return
        for function in iter_functions(module.tree):
            writes: list[ast.Call] = []
            has_fsync = has_replace = False
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name is None:
                    continue
                if name.endswith(".fsync") or name == "fsync":
                    has_fsync = True
                elif name.endswith(".replace") or name == "replace":
                    has_replace = True
                elif _is_truncate_write(node):
                    writes.append(node)
            if writes and not (has_fsync and has_replace):
                for write in writes:
                    yield self.diagnostic(
                        module,
                        write,
                        "FRQ-D702",
                        "truncate-mode write without fsync + atomic rename "
                        "— a crash mid-write destroys the old copy too; "
                        "use atomic_write_json / write-temp + os.replace",
                    )
