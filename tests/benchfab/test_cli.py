"""``python -m repro.benchfab`` — list, compare, run."""

from __future__ import annotations

import pytest

from repro.benchfab import cli


def test_list_prints_the_registry(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "batching" in out
    assert "fabric_smoke [smoke]" in out
    assert "conformance" in out


def test_list_scenarios_expands_matrices(capsys):
    assert cli.main(["list", "--scenarios"]) == 0
    out = capsys.readouterr().out
    assert "fabric_smoke/burst-trickle" in out
    assert "runtime=tcp" in out


def test_compare_flags_the_stored_batching_cliff(
    capsys, tmp_path, batching_artifact
):
    """The CLI acceptance path: compare on a stored artifact whose
    sweep dips at batch 256 exits non-zero and prints the readable diff
    naming that point."""
    path = batching_artifact((14_700, 47_700, 67_300, 49_700))
    code = cli.main(
        ["compare", str(path), "--trajectory", str(tmp_path / "traj")]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "scorecard: batching" in out
    assert "[FAIL] durable-no-batch-cliff" in out
    assert "batch_size=256/durability=durable 49700 < " in out


def test_compare_resolves_bench_names(
    capsys, tmp_path, monkeypatch, batching_artifact
):
    """A bare bench name resolves to ``benchmarks/out/BENCH_<name>.json``
    under the working directory."""
    out_dir = tmp_path / "benchmarks" / "out"
    out_dir.mkdir(parents=True)
    batching_artifact((14_700, 47_700, 62_000, 67_300)).rename(
        out_dir / "BENCH_batching.json"
    )
    monkeypatch.chdir(tmp_path)
    code = cli.main(
        ["compare", "batching", "--trajectory", str(tmp_path / "traj")]
    )
    assert code == 0
    assert "scorecard: batching" in capsys.readouterr().out


def test_compare_unknown_artifact_errors(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["compare", "never-heard-of-it", "--trajectory", str(tmp_path)])


def test_run_executes_a_small_scenario(capsys, tmp_path):
    """A real (tiny) run end to end through the CLI: artifact written,
    trajectory appended, report printed."""
    code = cli.main(
        [
            "run",
            "fabric_smoke",
            "--only",
            "fabric_smoke/conform-sync",
            "--out",
            str(tmp_path / "out"),
            "--trajectory",
            str(tmp_path / "traj"),
            "--data-root",
            str(tmp_path / "data"),
        ]
    )
    out = capsys.readouterr().out
    assert (tmp_path / "out" / "BENCH_fabric_smoke.json").exists()
    assert (tmp_path / "traj" / "fabric_smoke.jsonl").exists()
    assert "scorecard: fabric_smoke" in out
    # A single conformance cell cannot satisfy the full smoke summary
    # (no ingest sweep ran), so the gate outcome is reported either way;
    # what matters here is orchestration, not the verdict.
    assert code in (0, 1)
