"""Unit tests for the chaos-plan model (repro.runtime.chaos).

A :class:`ChurnPlan` must be *replayable*: every runtime applies the
same events at the same stream positions and reaches the same cloud
state.  Illegal plans — rejoining a node that never crashed, crashing
the whole fleet, rejoining inside the crash's own publication — are
rejected at construction, not discovered mid-run.  And a publication a
runtime loses must fail ``run_churn`` where it happens, not as a
fingerprint diff publications later.
"""

from __future__ import annotations

import pytest

from repro.runtime.chaos import ChurnEvent, ChurnPlan, run_churn


class TestChurnEvent:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown churn action"):
            ChurnEvent(0, 0, "explode", 1)

    def test_non_admit_needs_node_id(self):
        for action in ("retire", "crash", "rejoin"):
            with pytest.raises(ValueError, match="needs a node_id"):
                ChurnEvent(0, 0, action)

    def test_admit_may_omit_node_id(self):
        assert ChurnEvent(0, 0, "admit").node_id is None


class TestPlanValidation:
    def test_events_sorted_by_publication_then_position(self):
        plan = ChurnPlan(
            [
                ChurnEvent(1, 0, "rejoin", 0),
                ChurnEvent(0, 7, "crash", 0),
                ChurnEvent(0, 3, "retire", 1),
            ],
            3,
        )
        assert [(e.publication, e.position) for e in plan.events] == [
            (0, 3),
            (0, 7),
            (1, 0),
        ]

    def test_admit_of_live_node_rejected(self):
        with pytest.raises(ValueError, match="admit of live node"):
            ChurnPlan([ChurnEvent(0, 0, "admit", 1)], 2)

    def test_retire_of_inactive_rejected(self):
        with pytest.raises(ValueError, match="retire of inactive"):
            ChurnPlan(
                [
                    ChurnEvent(0, 0, "crash", 1),
                    ChurnEvent(0, 5, "retire", 1),
                ],
                3,
            )

    def test_emptying_the_fleet_rejected(self):
        with pytest.raises(ValueError, match="empty the fleet"):
            ChurnPlan(
                [
                    ChurnEvent(0, 0, "crash", 0),
                    ChurnEvent(0, 1, "retire", 1),
                ],
                2,
            )

    def test_rejoin_of_non_crashed_rejected(self):
        with pytest.raises(ValueError, match="rejoin of non-crashed"):
            ChurnPlan([ChurnEvent(1, 0, "rejoin", 0)], 2)

    def test_rejoin_in_crash_publication_rejected(self):
        with pytest.raises(ValueError, match="settle"):
            ChurnPlan(
                [
                    ChurnEvent(0, 0, "crash", 0),
                    ChurnEvent(0, 0, "rejoin", 0),
                ],
                2,
            )

    def test_rejoin_off_position_zero_rejected(self):
        with pytest.raises(ValueError, match="position 0"):
            ChurnPlan(
                [
                    ChurnEvent(0, 0, "crash", 0),
                    ChurnEvent(1, 5, "rejoin", 0),
                ],
                2,
            )

    def test_rejoined_node_may_crash_again(self):
        ChurnPlan(
            [
                ChurnEvent(0, 0, "crash", 0),
                ChurnEvent(1, 0, "rejoin", 0),
                ChurnEvent(1, 5, "crash", 0),
                ChurnEvent(2, 0, "rejoin", 0),
            ],
            2,
        )

    def test_admitted_node_enters_the_books(self):
        # Admitting node 2 makes it retireable later.
        ChurnPlan(
            [
                ChurnEvent(0, 0, "admit"),
                ChurnEvent(1, 3, "retire", 2),
            ],
            2,
        )

    def test_for_publication_slots(self):
        plan = ChurnPlan(
            [
                ChurnEvent(0, 3, "crash", 0),
                ChurnEvent(0, 3, "retire", 1),
                ChurnEvent(1, 0, "rejoin", 0),
            ],
            3,
        )
        slots = plan.for_publication(0)
        assert [e.action for e in slots[3]] == ["crash", "retire"]
        assert plan.for_publication(1)[0][0].action == "rejoin"
        assert plan.for_publication(2) == {}


class TestSeededPlans:
    def test_same_seed_same_plan(self):
        one = ChurnPlan.seeded(5, 3, 100, 3)
        two = ChurnPlan.seeded(5, 3, 100, 3)
        assert one.events == two.events

    def test_covers_all_four_actions(self):
        for seed in range(20):
            plan = ChurnPlan.seeded(seed, 3, 100, 3)
            assert {e.action for e in plan.events} == {
                "admit",
                "retire",
                "crash",
                "rejoin",
            }

    def test_two_node_fleet_stays_legal(self):
        for seed in range(20):
            ChurnPlan.seeded(seed, 4, 50, 2)  # validate() runs inside

    def test_minimums_enforced(self):
        with pytest.raises(ValueError, match="2 publications"):
            ChurnPlan.seeded(1, 1, 100, 3)
        with pytest.raises(ValueError, match="2 nodes"):
            ChurnPlan.seeded(1, 3, 100, 1)


class _StubRuntime:
    """The surface ``run_churn`` drives, with a cloud that may drop
    publications: ``settle`` only waits for quiescence, exactly like the
    threaded runtime's, and returns whether or not a receipt arrived."""

    def __init__(self, lose=()):
        self.dispatcher = type("_Dispatcher", (), {"publication": 0})()
        self._lose = set(lose)
        self._receipts = {}
        self.ingested = []

    def pump_dummies(self, fraction):
        pass

    def ingest(self, line):
        self.ingested.append(line)

    def close_publication(self):
        publication = self.dispatcher.publication
        if publication not in self._lose:
            self._receipts[publication] = object()
        self.dispatcher.publication += 1

    def settle(self, publication, timeout=120.0):
        pass

    def _receipt(self, publication):
        return self._receipts.get(publication)


class TestRunChurn:
    def test_every_receipt_present_runs_through(self):
        runtime = _StubRuntime()
        run_churn(runtime, [["a", "b"], ["c"]], ChurnPlan((), 3))
        assert runtime.ingested == ["a", "b", "c"]

    def test_settling_without_a_receipt_names_the_publication(self):
        runtime = _StubRuntime(lose={1})
        with pytest.raises(RuntimeError, match="publication 1 settled"):
            run_churn(runtime, [["a"], ["b"], ["c"]], ChurnPlan((), 3))
        # The loss stops the run at once: publication 2 never starts.
        assert runtime.ingested == ["a", "b"]
