"""The declarative rule catalogue and its evaluation engine."""

from __future__ import annotations

import pytest

from repro.benchfab.rules import (
    Rule,
    RuleError,
    evaluate_rules,
    render_report,
    violations,
)
from repro.benchfab.scorecard import Point, Scorecard


def _points(*rows):
    return [Point(tuple(sorted(key.items())), metrics) for key, metrics in rows]


def _one(points, rule, **kwargs):
    verdicts = evaluate_rules(points, [rule], **kwargs)
    assert len(verdicts) == 1
    return verdicts[0]


def test_rule_validation():
    with pytest.raises(RuleError):
        Rule(id="r", kind="sideways")
    with pytest.raises(RuleError):
        Rule(id="r", kind="min-value", metric="m", agg="mode")
    with pytest.raises(RuleError):
        Rule(id="r", kind="min-value")  # metric required
    # fingerprint-match is the one metric-less kind.
    Rule(id="r", kind="fingerprint-match")


def test_rule_round_trips_through_dict():
    rule = Rule(
        id="r",
        kind="min-ratio",
        metric="throughput_rps",
        select=(("batch_size", 64),),
        baseline=(("batch_size", 1),),
        threshold=2.0,
        note="why",
    )
    assert Rule.from_dict(rule.to_dict()) == rule


def test_min_and_max_value():
    points = _points(({"v": "a"}, {"m": 5.0}), ({"v": "b"}, {"m": 9.0}))
    assert _one(points, Rule(id="r", kind="min-value", metric="m", agg="min", threshold=4)).status == "pass"
    assert _one(points, Rule(id="r", kind="max-value", metric="m", agg="max", threshold=8)).status == "fail"
    missing = _one(points, Rule(id="r", kind="min-value", metric="absent", threshold=1))
    assert missing.status == "fail"
    assert "no points carry" in missing.detail


def test_ratio_rules_select_and_baseline():
    points = _points(
        ({"batch_size": 1}, {"rate": 10.0}),
        ({"batch_size": 64}, {"rate": 25.0}),
    )
    rule = Rule(
        id="speedup",
        kind="min-ratio",
        metric="rate",
        select=(("batch_size", 64),),
        baseline=(("batch_size", 1),),
        baseline_agg="last",
        threshold=2.0,
    )
    assert _one(points, rule).status == "pass"
    verdict = _one(
        points,
        Rule(
            id="too-strict",
            kind="min-ratio",
            metric="rate",
            select=(("batch_size", 64),),
            baseline=(("batch_size", 1),),
            baseline_agg="last",
            threshold=3.0,
        ),
    )
    assert verdict.status == "fail"
    assert "ratio 2.50" in verdict.detail
    zero = _points(({"batch_size": 1}, {"rate": 0.0}), ({"batch_size": 64}, {"rate": 1.0}))
    assert "zero" in _one(zero, rule).detail


def test_monotone_rule():
    rising = _points(
        ({"workers": 1}, {"rate": 10.0}),
        ({"workers": 2}, {"rate": 19.0}),
        ({"workers": 4}, {"rate": 18.5}),  # within 10% tolerance
    )
    rule = Rule(
        id="scales", kind="monotone", metric="rate", order_by="workers", frac=0.10
    )
    assert _one(rising, rule).status == "pass"
    cliff = rising + _points(({"workers": 8}, {"rate": 9.0}))
    verdict = _one(cliff, rule)
    assert verdict.status == "fail"
    assert "workers=8" in verdict.detail
    assert _one(_points(), Rule(id="r", kind="monotone", metric="rate", order_by="w")).status == "skip"


def test_fingerprint_match():
    def card(name, runtime, fingerprint):
        return Scorecard(
            scenario=name,
            key={"runtime": runtime, "workload": "conformance"},
            fingerprint=fingerprint,
        )

    rule = Rule(
        id="conform",
        kind="fingerprint-match",
        select=(("workload", "conformance"),),
        baseline=(("runtime", "sync"),),
    )
    agreeing = [
        card("c/sync", "sync", "f00d"),
        card("c/threaded", "threaded", "f00d"),
        card("c/tcp", "tcp", "f00d"),
    ]
    assert _one([], rule, cards=agreeing).status == "pass"
    diverged = agreeing[:2] + [card("c/tcp", "tcp", "beef")]
    verdict = _one([], rule, cards=diverged)
    assert verdict.status == "fail"
    assert "c/tcp" in verdict.detail
    assert _one([], rule, cards=agreeing[1:]).status == "fail"  # no baseline


def test_min_cpus_guard_skips_not_passes():
    rule = Rule(
        id="parallel", kind="min-value", metric="rate", threshold=1, min_cpus=4
    )
    points = _points(({"workers": 4}, {"rate": 0.0}))
    assert _one(points, rule, cpu_count=2).status == "skip"
    assert _one(points, rule, cpu_count=8).status == "fail"


def test_trajectory_within():
    rule = Rule(
        id="traj",
        kind="trajectory-within",
        metric="speedup",
        frac=0.2,
        agg="last",
    )
    now = _points(({"v": "s"}, {"speedup": 3.0}))
    history = [
        _points(({"v": "s"}, {"speedup": 3.5})),
        _points(({"v": "s"}, {"speedup": 3.4})),
    ]
    assert _one(now, rule, history=history).status == "pass"
    sunk = _points(({"v": "s"}, {"speedup": 2.0}))
    verdict = _one(sunk, rule, history=history)
    assert verdict.status == "fail"
    assert "best prior 3.5" in verdict.detail
    assert _one(now, rule).status == "skip"  # no history


def test_render_report_shape():
    points = _points(({"batch": 64}, {"rate": 1.0}), ({"batch": 1}, {"rate": 5.0}))
    verdicts = evaluate_rules(
        points,
        [
            Rule(id="floor", kind="min-value", metric="rate", agg="max", threshold=2),
            Rule(
                id="cliff",
                kind="monotone",
                metric="rate",
                order_by="batch",
                note="recorded drift",
            ),
        ],
    )
    report = render_report("demo", verdicts)
    lines = report.splitlines()
    assert lines[0] == "scorecard: demo"
    assert any(line.startswith("[  ok] floor") for line in lines)
    assert any(line.startswith("[FAIL] cliff") for line in lines)
    assert any("note: recorded drift" in line for line in lines)
    assert lines[-1] == "2 rules: 1 passed, 1 failed, 0 skipped"
    assert [violation.rule_id for violation in violations(verdicts)] == ["cliff"]
