"""Declarative tolerance rules and their evaluation engine.

A :class:`Rule` is data — the fabric's replacement for every bespoke
``assert`` the seven hand-rolled bench scripts used to carry.  Rules
select points out of a normalised series (see
:mod:`repro.benchfab.scorecard`), aggregate them, and check one of a
small catalogue of conditions:

========================  ==================================================
kind                      meaning
========================  ==================================================
``min-value``             agg(selected metric) >= ``threshold``
``max-value``             agg(selected metric) <= ``threshold``
``min-ratio``             agg(selected) / agg(baseline) >= ``threshold``
``max-ratio``             agg(selected) / agg(baseline) <= ``threshold``
``monotone``              ordered by ``order_by``: each next point >=
                          (1 - frac) * previous
``fingerprint-match``     every selected scorecard fingerprint equals the
                          baseline card's (cross-runtime conformance)
``trajectory-within``     agg(selected) >= (1 - frac) * best prior run
                          (needs a trajectory history; skipped otherwise)
========================  ==================================================

Failures render as a readable scorecard diff
(:func:`render_report`) — the trend engine's CI output.  Rules may
carry environment guards (``min_cpus``) so machine-bound gates skip
rather than flake, and a ``note`` recording provenance or behaviour
drift from the ported script.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.benchfab.scorecard import Point

KINDS = (
    "min-value",
    "max-value",
    "min-ratio",
    "max-ratio",
    "monotone",
    "fingerprint-match",
    "trajectory-within",
)

_AGGREGATES = {
    "last": lambda values: values[-1],
    "min": min,
    "max": max,
    "median": statistics.median,
}


class RuleError(ValueError):
    """Raised for malformed rules."""


@dataclass(frozen=True)
class Rule:
    """One declarative tolerance gate.

    ``select``/``baseline`` filter points by key subset (a point
    matches when every named axis equals the given value); ``agg`` and
    ``baseline_agg`` reduce the matching values; ``threshold``/``frac``
    parameterise the condition; ``min_cpus`` skips machine-bound gates
    on small runners; ``note`` records provenance and any drift from
    the gate a ported script used to hard-code.
    """

    id: str
    kind: str
    metric: str = ""
    select: tuple[tuple[str, Any], ...] = ()
    baseline: tuple[tuple[str, Any], ...] = ()
    agg: str = "last"
    baseline_agg: str = "median"
    threshold: float = 0.0
    frac: float = 0.10
    order_by: str = ""
    min_cpus: int = 0
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise RuleError(f"unknown rule kind {self.kind!r}")
        if self.agg not in _AGGREGATES or self.baseline_agg not in _AGGREGATES:
            raise RuleError(
                f"unknown aggregate in rule {self.id!r}: "
                f"{self.agg!r}/{self.baseline_agg!r}"
            )
        if self.kind != "fingerprint-match" and not self.metric:
            raise RuleError(f"rule {self.id!r} names no metric")
        object.__setattr__(self, "select", tuple(sorted(self.select)))
        object.__setattr__(self, "baseline", tuple(sorted(self.baseline)))

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "metric": self.metric,
            "select": dict(self.select),
            "baseline": dict(self.baseline),
            "agg": self.agg,
            "baseline_agg": self.baseline_agg,
            "threshold": self.threshold,
            "frac": self.frac,
            "order_by": self.order_by,
            "min_cpus": self.min_cpus,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Rule":
        kwargs = dict(data)
        kwargs["select"] = tuple(dict(data.get("select", {})).items())
        kwargs["baseline"] = tuple(dict(data.get("baseline", {})).items())
        return cls(**kwargs)


@dataclass(frozen=True)
class Violation:
    """One failed rule, with enough context to read without the JSON."""

    rule_id: str
    kind: str
    metric: str
    message: str
    points: tuple[str, ...] = ()
    note: str = ""


@dataclass
class Verdict:
    """The outcome of one rule over one series."""

    rule: Rule
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    violations: tuple[Violation, ...] = ()


def _match(point: Point, constraint: tuple[tuple[str, Any], ...]) -> bool:
    key = dict(point.key)
    return all(key.get(axis) == value for axis, value in constraint)


def _selected(
    points: Sequence[Point], rule: Rule, constraint
) -> list[Point]:
    return [
        point
        for point in points
        if _match(point, constraint) and rule.metric in point.metrics
    ]


def _values(points: Sequence[Point], metric: str) -> list[float]:
    return [point.metrics[metric] for point in points]


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _where(constraint: tuple[tuple[str, Any], ...]) -> str:
    return (
        " where " + ", ".join(f"{k}={v}" for k, v in constraint)
        if constraint
        else ""
    )


def _skip(rule: Rule, why: str) -> Verdict:
    return Verdict(rule, "skip", why)


def _fail(rule: Rule, message: str, points: Sequence[Point] = ()) -> Verdict:
    violation = Violation(
        rule_id=rule.id,
        kind=rule.kind,
        metric=rule.metric,
        message=message,
        points=tuple(point.label() for point in points),
        note=rule.note,
    )
    return Verdict(rule, "fail", message, (violation,))


def _evaluate_bounds(rule: Rule, points: Sequence[Point]) -> Verdict:
    selected = _selected(points, rule, rule.select)
    if not selected:
        return _fail(
            rule,
            f"no points carry metric {rule.metric!r}{_where(rule.select)}",
        )
    value = _AGGREGATES[rule.agg](_values(selected, rule.metric))
    if rule.kind in ("min-value", "max-value"):
        ok = (
            value >= rule.threshold
            if rule.kind == "min-value"
            else value <= rule.threshold
        )
        sign = ">=" if rule.kind == "min-value" else "<="
        if ok:
            return Verdict(
                rule,
                "pass",
                f"{rule.metric} {rule.agg} {_fmt(value)} {sign} "
                f"{_fmt(rule.threshold)}",
            )
        return _fail(
            rule,
            f"{rule.metric}{_where(rule.select)}: {rule.agg} "
            f"{_fmt(value)} violates {sign} {_fmt(rule.threshold)}",
            selected,
        )
    # ratio kinds
    reference = _selected(points, rule, rule.baseline)
    if not reference:
        return _fail(
            rule,
            f"no baseline points carry metric {rule.metric!r}"
            f"{_where(rule.baseline)}",
        )
    base = _AGGREGATES[rule.baseline_agg](_values(reference, rule.metric))
    if base == 0:
        return _fail(rule, f"baseline {rule.metric} is zero{_where(rule.baseline)}")
    ratio = value / base
    ok = (
        ratio >= rule.threshold
        if rule.kind == "min-ratio"
        else ratio <= rule.threshold
    )
    sign = ">=" if rule.kind == "min-ratio" else "<="
    detail = (
        f"{rule.metric}{_where(rule.select)} {_fmt(value)} vs baseline"
        f"{_where(rule.baseline)} {_fmt(base)}: ratio {ratio:.2f} "
        f"{sign} {_fmt(rule.threshold)}"
    )
    if ok:
        return Verdict(rule, "pass", detail)
    return _fail(rule, detail.replace(sign, f"violates {sign}"), selected)


def _evaluate_monotone(rule: Rule, points: Sequence[Point]) -> Verdict:
    if not rule.order_by:
        return _fail(rule, "monotone rule needs order_by")
    selected = [
        point
        for point in _selected(points, rule, rule.select)
        if point.get(rule.order_by) is not None
    ]
    selected.sort(key=lambda point: point.get(rule.order_by))
    if len(selected) < 2:
        return _skip(rule, f"fewer than two points ordered by {rule.order_by!r}")
    for previous, current in zip(selected, selected[1:]):
        floor = (1.0 - rule.frac) * previous.metrics[rule.metric]
        if current.metrics[rule.metric] < floor:
            return _fail(
                rule,
                f"{rule.metric} not monotone in {rule.order_by} "
                f"(tolerance {rule.frac:.0%}): "
                f"{current.label()} {_fmt(current.metrics[rule.metric])} < "
                f"{previous.label()} {_fmt(previous.metrics[rule.metric])}",
                (previous, current),
            )
    return Verdict(
        rule,
        "pass",
        f"{rule.metric} monotone in {rule.order_by} over "
        f"{len(selected)} points",
    )


def _evaluate_fingerprints(
    rule: Rule, cards: Sequence, points: Sequence[Point]
) -> Verdict:
    del points
    select = dict(rule.select)
    baseline = dict(rule.baseline)

    def matches(card, constraint: dict) -> bool:
        return all(card.key.get(k) == v for k, v in constraint.items())

    reference = [card for card in cards if matches(card, baseline)]
    if len(reference) != 1 or reference[0].fingerprint is None:
        return _fail(
            rule,
            f"need exactly one fingerprinted baseline card{_where(rule.baseline)}, "
            f"found {len(reference)}",
        )
    expected = reference[0].fingerprint
    candidates = [
        card
        for card in cards
        if matches(card, select) and card is not reference[0]
    ]
    if not candidates:
        return _skip(rule, f"no candidate cards{_where(rule.select)}")
    mismatched = [
        card for card in candidates if card.fingerprint != expected
    ]
    if not mismatched:
        return Verdict(
            rule,
            "pass",
            f"{len(candidates)} deployments byte-identical to "
            f"{reference[0].scenario}",
        )
    names = ", ".join(card.scenario for card in mismatched)
    return _fail(
        rule,
        f"cloud state diverged from {reference[0].scenario}: {names}",
    )


def _evaluate_trajectory(
    rule: Rule, points: Sequence[Point], history: Sequence[Sequence[Point]]
) -> Verdict:
    if not history:
        return _skip(rule, "no trajectory history")
    selected = _selected(points, rule, rule.select)
    if not selected:
        return _fail(
            rule,
            f"no points carry metric {rule.metric!r}{_where(rule.select)}",
        )
    current = _AGGREGATES[rule.agg](_values(selected, rule.metric))
    priors = []
    for run in history:
        prior_points = _selected(run, rule, rule.select)
        if prior_points:
            priors.append(
                _AGGREGATES[rule.agg](_values(prior_points, rule.metric))
            )
    if not priors:
        return _skip(rule, "trajectory carries no matching points")
    best = max(priors)
    floor = (1.0 - rule.frac) * best
    if current >= floor:
        return Verdict(
            rule,
            "pass",
            f"{rule.metric} {_fmt(current)} within {rule.frac:.0%} of best "
            f"prior {_fmt(best)} over {len(priors)} runs",
        )
    return _fail(
        rule,
        f"{rule.metric}{_where(rule.select)} {_fmt(current)} fell "
        f"{1.0 - current / best:.1%} below best prior {_fmt(best)} "
        f"(tolerance {rule.frac:.0%}, {len(priors)} prior runs)",
        selected,
    )


def evaluate_rules(
    points: Sequence[Point],
    rules: Sequence[Rule],
    *,
    cards: Sequence = (),
    history: Sequence[Sequence[Point]] = (),
    cpu_count: int | None = None,
) -> list[Verdict]:
    """Evaluate every rule over one normalised series.

    ``cards`` supplies scorecards for fingerprint rules; ``history`` is
    the prior trajectory (newest last) for ``trajectory-within`` rules;
    ``cpu_count`` defaults to the machine's (injectable for tests).
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    verdicts = []
    for rule in rules:
        if rule.min_cpus and cpus < rule.min_cpus:
            verdicts.append(
                _skip(rule, f"needs >= {rule.min_cpus} CPUs, have {cpus}")
            )
            continue
        if rule.kind in ("min-value", "max-value", "min-ratio", "max-ratio"):
            verdicts.append(_evaluate_bounds(rule, points))
        elif rule.kind == "monotone":
            verdicts.append(_evaluate_monotone(rule, points))
        elif rule.kind == "fingerprint-match":
            verdicts.append(_evaluate_fingerprints(rule, cards, points))
        else:  # trajectory-within (KINDS is closed)
            verdicts.append(_evaluate_trajectory(rule, points, history))
    return verdicts


def violations(verdicts: Sequence[Verdict]) -> list[Violation]:
    """Flatten the failed verdicts' violations."""
    out: list[Violation] = []
    for verdict in verdicts:
        out.extend(verdict.violations)
    return out


def render_report(bench: str, verdicts: Sequence[Verdict]) -> str:
    """The readable scorecard diff CI prints on a trend regression."""
    marks = {"pass": "ok", "fail": "FAIL", "skip": "skip"}
    lines = [f"scorecard: {bench}", "=" * (11 + len(bench))]
    for verdict in verdicts:
        rule = verdict.rule
        lines.append(
            f"[{marks[verdict.status]:>4}] {rule.id} ({rule.kind})"
        )
        if verdict.detail:
            lines.append(f"       {verdict.detail}")
        for violation in verdict.violations:
            if violation.points:
                lines.append(
                    "       points: " + ", ".join(violation.points)
                )
            if violation.note:
                lines.append(f"       note: {violation.note}")
    failed = sum(1 for verdict in verdicts if verdict.status == "fail")
    skipped = sum(1 for verdict in verdicts if verdict.status == "skip")
    lines.append(
        f"{len(verdicts)} rules: {len(verdicts) - failed - skipped} passed, "
        f"{failed} failed, {skipped} skipped"
    )
    return "\n".join(lines)
