"""Privacy-budget checkers (FRQ-P3xx).

The index published per publication carries Laplace noise whose ε is
split across tree levels by the accountant (paper Section 5: the privacy
budget is consumed per level so the whole index satisfies ε-DP).  The
guarantee is global: *every* noise draw must be charged to the
accountant in :mod:`repro.privacy`.  A stray ``mechanism.sample()`` or a
hand-typed epsilon literal elsewhere silently spends budget the
accountant never sees, so the published ε is wrong.

* ``FRQ-P301`` — Laplace sampling performed outside ``privacy/``;
* ``FRQ-P302`` — a numeric epsilon literal outside ``privacy/`` and the
  config defaults.

That each ``draw_noise_plan`` caller draws at the configured budget is
observable, and tested (``tests/privacy/test_configured_epsilon.py``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name, dotted_name
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

_SAMPLING_METHODS = {"sample", "sample_integer", "sample_float"}
#: Receiver names that imply a Laplace mechanism even without taint.
_MECHANISM_NAME_RE = re.compile(r"(mechanism|laplace)", re.IGNORECASE)
_EPSILON_NAME_RE = re.compile(r"(^|_)(epsilon|eps)$", re.IGNORECASE)

#: Modules allowed to hold the repo's sanctioned epsilon defaults.
_EPSILON_DEFAULT_MODULES = ("core/config.py",)


def _numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _numeric_literal(node.operand)
    return False


@register
class PrivacyBudgetChecker(Checker):
    """Noise draws and epsilon literals outside the accountant."""

    name = "privacy-budget"
    codes = {
        "FRQ-P301": "Laplace sampling outside privacy/ bypasses the accountant",
        "FRQ-P302": "numeric epsilon literal outside privacy/ and config",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        in_privacy = module.in_package("privacy")
        if not in_privacy:
            yield from self._check_sampling(module)
            if not module.is_module(*_EPSILON_DEFAULT_MODULES):
                yield from self._check_epsilon_literals(module)

    # -- FRQ-P301 ----------------------------------------------------------

    def _check_sampling(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        tainted = self._mechanism_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            receiver = node.func.value
            if method in _SAMPLING_METHODS:
                receiver_name = dotted_name(receiver)
                is_mechanism = (
                    (receiver_name is not None and receiver_name in tainted)
                    or (
                        receiver_name is not None
                        and _MECHANISM_NAME_RE.search(
                            receiver_name.rsplit(".", 1)[-1]
                        )
                    )
                    or (
                        isinstance(receiver, ast.Call)
                        and (call_name(receiver) or "").endswith(
                            "LaplaceMechanism"
                        )
                    )
                )
                if is_mechanism:
                    yield self.diagnostic(
                        module,
                        node,
                        "FRQ-P301",
                        f".{method}() draws Laplace noise outside privacy/ — "
                        f"route the draw through the accountant's noise plan "
                        f"so it is charged against the budget",
                    )
            elif method == "laplace":
                # numpy-style rng.laplace(loc, scale) — any direct use
                # outside privacy/ is an uncharged draw.
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-P301",
                    ".laplace() draws noise outside privacy/ — route the "
                    "draw through the accountant's noise plan",
                )

    @staticmethod
    def _mechanism_names(module: ModuleInfo) -> set[str]:
        """Names anywhere in the module assigned from LaplaceMechanism."""
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                callee = call_name(node.value) or ""
                if callee.endswith("LaplaceMechanism"):
                    for target in node.targets:
                        name = dotted_name(target)
                        if name is not None:
                            names.add(name)
        return names

    # -- FRQ-P302 ----------------------------------------------------------

    def _check_epsilon_literals(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if (
                        keyword.arg is not None
                        and _EPSILON_NAME_RE.search(keyword.arg)
                        and _numeric_literal(keyword.value)
                    ):
                        yield self.diagnostic(
                            module,
                            keyword.value,
                            "FRQ-P302",
                            f"literal {keyword.arg}= spends privacy budget "
                            f"the accountant never sees — thread the "
                            f"configured epsilon through instead",
                        )
                callee = call_name(node) or ""
                if (
                    callee.endswith("LaplaceMechanism")
                    and node.args
                    and _numeric_literal(node.args[0])
                ):
                    yield self.diagnostic(
                        module,
                        node.args[0],
                        "FRQ-P302",
                        "LaplaceMechanism built with a literal epsilon — "
                        "thread the configured epsilon through instead",
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if value is None or not _numeric_literal(value):
                    continue
                for target in targets:
                    name = dotted_name(target)
                    if name is not None and _EPSILON_NAME_RE.search(
                        name.rsplit(".", 1)[-1]
                    ):
                        yield self.diagnostic(
                            module,
                            node,
                            "FRQ-P302",
                            f"{name} assigned a literal — epsilon belongs in "
                            f"FresqueConfig, not scattered through the code",
                        )
