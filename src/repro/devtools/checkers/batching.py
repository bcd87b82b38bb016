"""Batched-hot-path checker (FRQ-B801).

The batched ingestion path (docs/BATCHING.md) earns its throughput by
amortising per-record overhead: one cipher call, one socket write, one
journal frame per *batch*.  That degrades silently — the code still
passes every equivalence test if a batch function quietly loops a
per-record primitive.  (The close flush is pinned behaviourally, by
``tests/core/test_batching.py::TestCloseSplitsInflightBatch``.)

* ``FRQ-B801`` — inside a function whose name marks it as a batch hot
  path (it contains ``batch``), a ``for``/``while`` loop body calls a
  per-record primitive: ``.encrypt``, ``.send`` or ``.sendall``.  Each
  has a batch-sized counterpart (``encrypt_batch``, one framed write
  per batch); looping the scalar form re-pays the per-record overhead
  the batch exists to amortise.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name, iter_functions
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

#: Per-record primitives with a batch-sized counterpart (suffix match on
#: the dotted callee, so ``.encrypt_batch`` itself never matches).
_SCALAR_CALLS = (".encrypt", ".send", ".sendall")


def _loops(function: ast.AST) -> Iterator[ast.For | ast.While]:
    for node in ast.walk(function):
        if isinstance(node, (ast.For, ast.While)):
            yield node


@register
class BatchingChecker(Checker):
    """Keep the batched hot path batch-shaped."""

    name = "batching"
    codes = {
        "FRQ-B801": "per-record primitive looped inside a batch hot path",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        for function in iter_functions(module.tree):
            if "batch" not in function.name.lower():
                continue
            for loop in _loops(function):
                for node in ast.walk(loop):
                    if not isinstance(node, ast.Call):
                        continue
                    name = call_name(node)
                    if name is None or not name.endswith(_SCALAR_CALLS):
                        continue
                    primitive = name.rsplit(".", 1)[1]
                    yield self.diagnostic(
                        module,
                        node,
                        "FRQ-B801",
                        f"per-record .{primitive}() inside a loop in batch "
                        f"hot path {function.name}() — this re-pays the "
                        "per-record overhead batching amortises; use the "
                        "batch counterpart (encrypt_batch / one framed "
                        "write or append_raw_batch per batch)",
                    )
