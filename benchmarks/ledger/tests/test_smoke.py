"""Smoke test of the ledger benchmark.

Run with ``python -m pytest benchmarks/ledger/tests -q`` (tier-1's
``testpaths = ["tests"]`` does not collect it).  Runs ``run --smoke`` —
all six workloads at 1/20 size, traced and untraced — and checks the
output against ``BENCHMARK.json``.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[3]
RUN = ROOT / "benchmarks" / "ledger" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    completed = subprocess.run(
        [sys.executable, str(RUN), "run", "--smoke", "--seed", "11",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    document = json.loads((out / "ledger_11.json").read_text(encoding="utf-8"))
    return completed, document


def test_names_are_well_formed_and_unique(contract):
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])


def test_contract_matches_the_tables(contract):
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.ledger.workloads import END_TO_END, LAYERS, WORKLOADS

    assert [w["name"] for w in contract["workloads"]] == [
        w.name for w in WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [row[:3] for row in LAYERS]


def test_smoke_run_emits_every_metric_and_the_oracle_is_green(contract, smoke):
    completed, document = smoke
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    printed = {
        tuple(line.split()[:2]): line.split()[3]
        for line in completed.stdout.splitlines()
        if line and not line.startswith("#")
    }
    for workload in contract["workloads"]:
        name = workload["name"]
        entry = document["workloads"][name]
        assert entry["failed"] == 0, entry["failures"]
        assert entry["attempted"] >= 1
        for metric in contract["end_to_end"]:
            assert printed[(name, metric["name"])] == metric["unit"]
            assert entry["end_to_end"][metric["name"]]["value"] > 0
        for metric in contract["per_layer"]:
            assert printed[(name, metric["name"])] == metric["unit"]
        attributed = entry["layers"]["ledger.attributed_frac"]
        if name == "gowalla_tcp":  # driver thread only: the rest is waiting
            assert attributed > 0
        else:
            assert attributed >= 0.85, (name, attributed)
    overhead = document["workloads"]["nasa_telemetry"]["layers"]
    assert overhead["telemetry.enabled_overhead_frac"] != 0
    durable = document["workloads"]["gowalla_durable"]
    assert durable["end_to_end"]["recovery_s"]["value"] > 0
    assert "recovery_s" not in document["workloads"]["nasa_sync"]["end_to_end"]


def test_driver_form_prints_the_contract_line(contract):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", "gowalla_mixed", "--seed", "3",
         "--seconds", "10", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in contract["end_to_end"]}


def test_a_cell_that_raises_still_prints_its_result_line(contract):
    code = f"""
import sys
sys.path[:0] = [{str(ROOT)!r}, {str(ROOT / "src")!r}]
from benchmarks.ledger import cell, cli

def no_port(self):
    raise OSError("address already in use")

cell.Repetition.setup = no_port
sys.exit(cli.main("--workload gowalla_tcp --seed 3 --seconds 5 --trace 1 --smoke".split()))
"""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert completed.returncode == 1, completed.stderr[-3000:]
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] >= 1 and last["attempted"] >= last["failed"]
    assert set(last["metrics"]) == {m["name"] for m in contract["per_layer"]}


def test_compare_flags_a_breach(tmp_path, smoke):
    _, document = smoke
    slower = json.loads(json.dumps(document))
    metric = slower["workloads"]["nasa_sync"]["end_to_end"]["ingest_rps"]
    metric["value"] *= 0.5
    metric["runs"] = [value * 0.5 for value in metric["runs"]]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(document), encoding="utf-8")
    b.write_text(json.dumps(slower), encoding="utf-8")
    same = subprocess.run(
        [sys.executable, str(RUN), "compare", str(a), str(a)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    worse = subprocess.run(
        [sys.executable, str(RUN), "compare", str(a), str(b)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert same.returncode == 0, same.stdout
    assert worse.returncode == 1 and "BREACH" in worse.stdout
