"""Elastic-membership checkers (FRQ-E110x).

Elastic membership (docs/PROTOCOL.md) rests on two disciplines that are
easy to erode silently:

* every pair handler runs the membership-epoch staleness check before
  it processes anything — a handler that skips it happily ingests the
  output of a crashed node's previous incarnation *on top of* the crash
  redispatch, double-counting records in a way only the crash+rejoin
  chaos drill would catch; and
* the :class:`~repro.core.membership.Membership` object is the single
  owner of the dispatch rotation — a module that pokes the epoch, the
  join floors or the round-robin cursor directly desynchronises the
  fleet from the ``MembershipMsg`` stream the checking side trusts.

Machine-checked as:

* ``FRQ-E1101`` — an ``on_pair_batch`` handler that never
  calls ``_admit_epoch``, or touches its message's ``.pairs`` before
  the first ``_admit_epoch`` call.  The epoch check must gate the
  handler, not annotate it.
* ``FRQ-E1102`` — an assignment to a ``_epoch``, ``_joined`` or
  ``_next_cn`` attribute outside :mod:`repro.core.membership`.  Epoch
  bumps, join floors and the dispatch cursor are membership state;
  mutating them elsewhere bypasses the versioning every staleness
  decision keys off.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name, iter_functions
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

#: Entry points that feed pairs into randomer/checker state.
_PAIR_HANDLERS = ("on_pair_batch",)

#: Membership state only :mod:`repro.core.membership` may assign.
_MEMBERSHIP_ATTRS = ("_epoch", "_joined", "_next_cn")


@register
class MembershipChecker(Checker):
    """Keep the epoch protocol gating every pair path."""

    name = "membership"
    codes = {
        "FRQ-E1101": "pair handler without a leading membership-epoch check",
        "FRQ-E1102": "membership state mutated outside core/membership.py",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        yield from self._check_epoch_gate(module)
        yield from self._check_state_ownership(module)

    # -- FRQ-E1101 ----------------------------------------------------------

    def _check_epoch_gate(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for function in iter_functions(module.tree):
            if function.name not in _PAIR_HANDLERS:
                continue
            admit_line = None
            pairs_line = None
            pairs_node = None
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    name = call_name(node)
                    if name is not None and name.endswith("_admit_epoch"):
                        if admit_line is None or node.lineno < admit_line:
                            admit_line = node.lineno
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr == "pairs"
                    and (pairs_line is None or node.lineno < pairs_line)
                ):
                    pairs_line = node.lineno
                    pairs_node = node
            if admit_line is None:
                yield self.diagnostic(
                    module,
                    function,
                    "FRQ-E1101",
                    f"pair handler {function.name}() never calls "
                    "_admit_epoch — without the membership-epoch staleness "
                    "check it ingests a crashed incarnation's output on "
                    "top of the crash redispatch, double-counting records "
                    "(docs/PROTOCOL.md)",
                )
            elif pairs_line is not None and pairs_line < admit_line:
                yield self.diagnostic(
                    module,
                    pairs_node,
                    "FRQ-E1101",
                    f"pair handler {function.name}() touches .pairs before "
                    "its _admit_epoch call — the epoch check must gate the "
                    "handler, or stale pairs are processed before the "
                    "staleness decision is made",
                )

    # -- FRQ-E1102 ----------------------------------------------------------

    def _check_state_ownership(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
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
