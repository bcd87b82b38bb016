"""The fabric's conformance matrix as an executable byte-identity suite.

The benchmark fabric's ``CONFORMANCE_MATRIX`` expands to every
runtime × batch-size × durability cell the project claims is a *pure
deployment change* — sync, scheduled and TCP runtimes, batch sizes 1
and 64, in-memory and durable storage.  This module drives each cell through
the same :func:`repro.benchfab.runner.run_scenario` path the benches
use and asserts its cloud-state fingerprint is byte-identical to the
sync/batch-64/in-memory baseline — the scenario expansion doubling as
the conformance suite, so a new matrix axis (a runtime, a durability
mode) is automatically held to byte identity the moment it is added.

The dedicated equivalence harnesses (``test_batch_equivalence``,
``test_degraded_mode``) probe *why* the
property holds, with adversarial interleavings; this suite pins that
the declarative matrix the benchmarks gate on exercises the very same
property end to end.
"""

from __future__ import annotations

import pytest

from repro.benchfab.runner import run_scenario
from repro.benchfab.scenarios import CONFORMANCE_MATRIX
from repro.benchfab.spec import Scenario

_SCENARIOS = CONFORMANCE_MATRIX.expand()

_BASELINE_KEY = {"runtime": "sync", "batch_size": 64, "durability": "memory"}


def _is_baseline(scenario: Scenario) -> bool:
    axes = scenario.axes()
    return all(axes.get(k) == v for k, v in _BASELINE_KEY.items())


_BASELINE = next(s for s in _SCENARIOS if _is_baseline(s))
_OTHERS = [s for s in _SCENARIOS if not _is_baseline(s)]


def test_matrix_covers_every_claimed_deployment_axis():
    """The expansion itself is part of the contract: losing a runtime
    or the durable column would silently shrink conformance coverage."""
    cells = {(s.runtime, s.batch_size, s.durability) for s in _SCENARIOS}
    assert cells == {
        ("sync", 1, "memory"),
        ("sync", 1, "durable"),
        ("sync", 64, "memory"),
        ("sync", 64, "durable"),
        ("scheduled", 1, "memory"),
        ("scheduled", 64, "memory"),
        ("tcp", 1, "memory"),
        ("tcp", 64, "memory"),
    }
    assert len(_SCENARIOS) == len(cells) == 8
    assert all(s.deterministic_ivs for s in _SCENARIOS)


@pytest.fixture(scope="module")
def baseline_fingerprint():
    card = run_scenario(_BASELINE)[0]
    assert card.fingerprint, "baseline cell produced no fingerprint"
    return card.fingerprint


@pytest.mark.parametrize(
    "scenario", _OTHERS, ids=[s.name.split("/", 1)[1] for s in _OTHERS]
)
def test_cell_matches_sync_baseline(scenario, baseline_fingerprint, tmp_path):
    card = run_scenario(scenario, data_root=tmp_path)[0]
    assert card.fingerprint == baseline_fingerprint, (
        f"{scenario.name}: cloud state diverged from the sync baseline"
    )
