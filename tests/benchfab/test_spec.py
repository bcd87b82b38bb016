"""Scenario records and matrix expansion."""

from __future__ import annotations

import pytest

from repro.benchfab.spec import MatrixSpec, Scenario, SpecError


def test_scenario_round_trips_through_dict():
    scenario = Scenario(
        name="t/one",
        bench="t",
        workload="ingest",
        batch_size=64,
        durability="durable",
        params=(("cipher", "aes"), ("rounds", 3)),
    )
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_scenario_rejects_unknown_axes():
    with pytest.raises(SpecError):
        Scenario(name="t/x", bench="t", runtime="quantum")
    with pytest.raises(SpecError):
        Scenario(name="t/x", bench="t", durability="ephemeral")
    with pytest.raises(SpecError):
        Scenario(name="t/x", bench="t", workload="teleport")
    with pytest.raises(SpecError):
        Scenario(name="t/x", bench="t", batch_size=0)
    with pytest.raises(SpecError):
        Scenario.from_dict({"name": "t/x", "bench": "t", "warp": 9})


def test_axes_always_carry_the_core_identity():
    """Rules select ``batch_size=1`` or ``runtime=sync`` even when the
    value is the field default — the key shape must not depend on which
    cell of a sweep a scenario is."""
    scenario = Scenario(name="t/default", bench="t")
    axes = scenario.axes()
    for core in ("workload", "runtime", "durability", "batch_size", "adaptive"):
        assert core in axes
    assert axes["runtime"] == "sync"
    assert axes["batch_size"] == 1
    # Non-core fields at their default stay out of the key.
    assert "sync_every" not in axes
    # Params ride along.
    assert Scenario(
        name="t/p", bench="t", params=(("variant", "x"),)
    ).axes()["variant"] == "x"


def test_matrix_expands_product_with_excludes_and_includes():
    matrix = MatrixSpec(
        bench="m",
        base={"workload": "publication", "records": 10},
        axes={
            "runtime": ("sync", "threaded"),
            "durability": ("memory", "durable"),
        },
        exclude=({"runtime": "threaded", "durability": "durable"},),
        include=({"name": "m/extra", "runtime": "sync", "shards": 2},),
    )
    scenarios = matrix.expand()
    names = [scenario.name for scenario in scenarios]
    assert names == [
        "m/durability=memory/runtime=sync",
        "m/durability=memory/runtime=threaded",
        "m/durability=durable/runtime=sync",
        "m/extra",
    ]
    assert all(scenario.records == 10 for scenario in scenarios)
    assert scenarios[-1].shards == 2


def test_matrix_routes_non_field_keys_into_params():
    matrix = MatrixSpec(
        bench="m",
        base={"workload": "ingest", "cipher": "aes"},
        axes={"rounds": (3, 5)},
    )
    expanded = matrix.expand()
    assert [scenario.param("rounds") for scenario in expanded] == [3, 5]
    assert all(scenario.param("cipher") == "aes" for scenario in expanded)


def test_matrix_rejects_duplicate_names():
    matrix = MatrixSpec(
        bench="m",
        include=({"name": "m/same"}, {"name": "m/same"}),
    )
    with pytest.raises(SpecError):
        matrix.expand()


def test_matrix_to_dict_is_plain_data():
    matrix = MatrixSpec(
        bench="m",
        base={"records": 5},
        axes={"batch_size": (1, 8)},
        exclude=({"batch_size": 8},),
    )
    data = matrix.to_dict()
    assert data["bench"] == "m"
    assert data["axes"] == {"batch_size": [1, 8]}
    assert data["exclude"] == [{"batch_size": 8}]
