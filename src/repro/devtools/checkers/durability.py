"""Durability-protocol checkers (FRQ-D7xx).

The crash-safety of :mod:`repro.durability` rests on three mechanical
disciplines that are easy to break in review-invisible ways; these rules
keep them machine-checked:

* ``FRQ-D701`` — in the ``durability`` package, a function that both
  appends to the write-ahead journal and feeds the pipeline must append
  *first*.  Dispatching a record before its journal append reopens the
  exact window the journal exists to close: a crash in between loses the
  record with no durable trace.
* ``FRQ-D702`` — a truncate-mode file write (``open(..., "w"/"wb")``,
  ``write_text``, ``write_bytes``) in the ``durability`` package inside a
  function that never calls both ``os.fsync`` and ``os.replace``.
  Durable state must go through the write-temp + fsync + atomic-rename
  path (:func:`~repro.durability.checkpoint.atomic_write_json`); a plain
  overwrite torn by a crash destroys the *old* good copy too.
* ``FRQ-D703`` — a ``.spend(...)`` call on a budget-like receiver
  outside the ``privacy`` package.  Every ε spend must flow through
  :meth:`~repro.privacy.accountant.PublicationAccountant.grant`, whose
  ledger intent is fsync'd before the in-memory budget moves — a direct
  spend elsewhere is invisible to crash recovery and can double-spend ε
  after a restart.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name, iter_functions
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

#: Journal-append method names (suffix match on the dotted callee).
_JOURNAL_APPENDS = (
    ".append_open",
    ".append_raw_batch",
    ".append_close",
    ".append_commit",
    ".append_intent",
)

#: Calls that mutate pipeline state (suffix match on the dotted callee).
_PIPELINE_CALLS = (
    "._send_all",
    ".on_raw",
    ".start_publication",
    ".end_publication",
    ".due_dummies",
    ".redispatch",
)

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
    """Keep the journal-first, atomic-write and ledgered-ε disciplines."""

    name = "durability"
    codes = {
        "FRQ-D701": "pipeline state mutated before the journal append",
        "FRQ-D702": "durable file overwritten without fsync + atomic rename",
        "FRQ-D703": "privacy budget spent outside the ledgered accountant",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        if module.in_package("durability"):
            yield from self._check_journal_ordering(module)
            yield from self._check_atomic_writes(module)
        if not module.in_package("privacy"):
            yield from self._check_unledgered_spends(module)

    # -- FRQ-D701 ----------------------------------------------------------

    def _check_journal_ordering(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for function in iter_functions(module.tree):
            first_append: ast.Call | None = None
            first_pipeline: ast.Call | None = None
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name is None:
                    continue
                if name.endswith(_JOURNAL_APPENDS):
                    if (
                        first_append is None
                        or node.lineno < first_append.lineno
                    ):
                        first_append = node
                elif name.endswith(_PIPELINE_CALLS):
                    if (
                        first_pipeline is None
                        or node.lineno < first_pipeline.lineno
                    ):
                        first_pipeline = node
            if (
                first_append is not None
                and first_pipeline is not None
                and first_pipeline.lineno < first_append.lineno
            ):
                yield self.diagnostic(
                    module,
                    first_pipeline,
                    "FRQ-D701",
                    "pipeline call precedes the journal append — a crash "
                    "in between loses the record with no durable trace; "
                    "append to the journal first",
                )

    # -- FRQ-D702 ----------------------------------------------------------

    def _check_atomic_writes(self, module: ModuleInfo) -> Iterator[Diagnostic]:
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

    # -- FRQ-D703 ----------------------------------------------------------

    def _check_unledgered_spends(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or not name.endswith(".spend"):
                continue
            receiver = name.rsplit(".", 1)[0]
            if "budget" not in receiver.lower():
                continue
            yield self.diagnostic(
                module,
                node,
                "FRQ-D703",
                "budget spent outside the ledgered accountant — crash "
                "recovery cannot see this spend and may double-grant ε; "
                "go through PublicationAccountant.grant()",
            )
