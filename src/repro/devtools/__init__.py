"""fresque-lint: domain-aware static analysis for this repository.

The reproduction's correctness claims rest on invariants that ordinary
unit tests exercise poorly:

* **shared-nothing parallelism** (paper Section 4.1) — races between
  parser/encrypter threads and the checker silently corrupt leaf offsets;
* **crypto hygiene** — an IV reuse or a non-constant-time tag compare
  breaks the security model even though every functional test still passes;
* **privacy-budget discipline** — any Laplace draw that bypasses the
  accountant invalidates the published ε guarantee.

This package is an AST-based (stdlib ``ast``, no third-party runtime
dependencies) linter enforcing those invariants in one pass of per-file
checkers::

    python -m repro.devtools.lint src

A rule lives here only while it is the sole guard of something any
module could get wrong; what a behavioural test can observe is a test.
See ``docs/STATIC_ANALYSIS.md`` for every diagnostic code, the paper
invariant it protects, the mutation audit behind that rule, and how to
suppress or baseline a finding.
"""

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, all_checkers, register

__all__ = [
    "Checker",
    "Diagnostic",
    "ModuleInfo",
    "all_checkers",
    "register",
]
