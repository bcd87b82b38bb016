"""Batched-hot-path checkers (FRQ-B8xx).

The batched ingestion path (docs/BATCHING.md) earns its throughput by
amortising per-record overhead: one cipher call, one socket write, one
journal frame per *batch*.  Both properties degrade silently — the code
still passes every equivalence test if a batch function quietly loops a
per-record primitive, and a dropped close flush only shows up as a
publication-boundary bug under a large batch size.  These rules keep the
two disciplines machine-checked:

* ``FRQ-B801`` — inside a function whose name marks it as a batch hot
  path (it contains ``batch``), a ``for``/``while`` loop body calls a
  per-record primitive: ``.encrypt``, ``.send`` or ``.sendall``.  Each
  has a batch-sized counterpart (``encrypt_batch``, one framed write
  per batch); looping the scalar form re-pays the per-record overhead
  the batch exists to amortise.
* ``FRQ-B802`` — a class that owns a batch accumulator (it defines both
  a flush method and ``end_publication``) whose ``end_publication``
  never flushes.  The close flush is what guarantees a batch never
  straddles a publication boundary; dropping it leaks the in-flight
  records into the next publication number.
* ``FRQ-B803`` — an assignment to a ``_batch_size`` attribute outside
  :mod:`repro.core.flow`.  The adaptive controller owns the batch size;
  mutating it directly bypasses the AIMD bookkeeping (window accounting,
  gauges, bounds clamping) and silently re-introduces the static-size
  cliff the controller exists to remove.
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
    """Keep the batched hot path batch-shaped and boundary-safe."""

    name = "batching"
    codes = {
        "FRQ-B801": "per-record primitive looped inside a batch hot path",
        "FRQ-B802": "batch accumulator without a flush on interval close",
        "FRQ-B803": "direct _batch_size mutation bypassing the controller",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        yield from self._check_scalar_loops(module)
        yield from self._check_close_flush(module)
        yield from self._check_size_mutation(module)

    # -- FRQ-B801 ----------------------------------------------------------

    def _check_scalar_loops(self, module: ModuleInfo) -> Iterator[Diagnostic]:
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

    # -- FRQ-B802 ----------------------------------------------------------

    def _check_close_flush(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            close = methods.get("end_publication")
            if close is None:
                continue
            if not any("flush" in name.lower() for name in methods):
                continue  # no batch accumulator to drop
            for inner in ast.walk(close):
                if isinstance(inner, ast.Call):
                    name = call_name(inner)
                    if name is not None and "flush" in name.lower():
                        break
            else:
                yield self.diagnostic(
                    module,
                    close,
                    "FRQ-B802",
                    f"{node.name}.end_publication() closes the interval "
                    "without flushing the in-flight batch — records left "
                    "in the accumulator leak into the next publication "
                    "number; flush (the close flush) before broadcasting "
                    "publishing",
                )

    # -- FRQ-B803 ----------------------------------------------------------

    def _check_size_mutation(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        if module.is_module("core/flow.py"):
            return  # the controller is the one legitimate owner
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue  # bare annotation, no mutation
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "_batch_size"
                    ):
                        yield self.diagnostic(
                            module,
                            node,
                            "FRQ-B803",
                            "direct assignment to ._batch_size bypasses the "
                            "adaptive controller (repro.core.flow) — its "
                            "AIMD accounting, bounds clamping and gauges "
                            "never see the change; adjust the size through "
                            "AdaptiveBatchController instead",
                        )
