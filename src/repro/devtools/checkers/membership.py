"""Elastic-membership checker (FRQ-E1102).

Elastic membership (docs/PROTOCOL.md) makes the
:class:`~repro.core.membership.Membership` object the single owner of
the dispatch rotation — a module that pokes the epoch, the join floors
or the round-robin cursor directly desynchronises the fleet from the
``MembershipMsg`` stream the checking side trusts.  (That every pair
handler *applies* the epoch staleness check is a behavioural property,
pinned by ``tests/core/test_checking.py::TestEpochGate``.)

* ``FRQ-E1102`` — an assignment to a ``_epoch``, ``_joined`` or
  ``_next_cn`` attribute outside :mod:`repro.core.membership`.  Epoch
  bumps, join floors and the dispatch cursor are membership state;
  mutating them elsewhere bypasses the versioning every staleness
  decision keys off.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

#: Membership state only :mod:`repro.core.membership` may assign.
_MEMBERSHIP_ATTRS = ("_epoch", "_joined", "_next_cn")


@register
class MembershipChecker(Checker):
    """Keep membership state owned by the Membership object."""

    name = "membership"
    codes = {
        "FRQ-E1102": "membership state mutated outside core/membership.py",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        if module.is_module("core/membership.py"):
            return  # the Membership object is the one legitimate owner
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue  # bare annotation, no mutation
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _MEMBERSHIP_ATTRS
                ):
                    yield self.diagnostic(
                        module,
                        node,
                        "FRQ-E1102",
                        f"assignment to .{target.attr} outside "
                        "repro.core.membership — epoch bumps, join floors "
                        "and the dispatch cursor are Membership state; "
                        "mutate them through admit/retire/mark_down/rejoin "
                        "so every transition is versioned",
                    )
