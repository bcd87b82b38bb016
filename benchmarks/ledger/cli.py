"""Command line of the ledger benchmark.

Driver form (what ``BENCHMARK.json`` runs)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

runs one cell in this process and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Harness form::

    python -m benchmarks.ledger run [--workload W] [--seed S] [--smoke]
    python -m benchmarks.ledger compare A.json B.json

``run`` makes every cell in a fresh subprocess, three untraced
repetitions per workload interleaved round-robin plus one traced cell
each, prints ``workload metric value unit`` lines (end-to-end first,
then layers) and writes ``out/ledger_<seed>.json``.  ``compare`` is the
repeatability check for this benchmark and the no-regression table for
later changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from benchmarks.ledger.workloads import (
    END_TO_END,
    HARNESS_ONLY,
    LAYERS,
    REPETITION_SECONDS,
    WORKLOADS,
    workload,
)

#: What one cell measures for (``BENCHMARK.json``'s ``run_seconds``) and
#: how many untraced cells ``run`` makes per workload (ISSUE 12's three
#: repetitions).  Constants, so that any two ledgers are comparable.
RUN_SECONDS = 10
REPETITIONS = 3
SMOKE_FACTOR = 0.05
E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END + HARNESS_ONLY}
LAYER_UNITS = {row[0]: row[1] for row in LAYERS}


# ---------------------------------------------------------------------------
# One cell, in this process
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    from benchmarks.ledger.cell import run_cell

    spec = workload(args.workload)
    seconds = args.seconds
    if args.smoke:  # 1/20 of the size, one repetition
        spec, seconds = spec.scaled(SMOKE_FACTOR), REPETITION_SECONDS
    result = run_cell(spec, args.seed, seconds, bool(args.trace))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    for message in result["failures"]:
        print(f"# FAILED {message}")
    _print_cell(result)
    if args.trace:
        metrics = {
            name: {"value": result["layers"][name], "unit": LAYER_UNITS[name]}
            for name in LAYER_UNITS
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


def _print_end_to_end(name: str, values: dict, counts: dict) -> None:
    for metric, value in values.items():
        n = counts.get(metric)
        suffix = f" n={n}" if n else ""
        print(f"{name} {metric} {value:.6g} {E2E_UNITS[metric]}{suffix}")


def _print_layers(name: str, values: dict) -> None:
    for metric, value in values.items():
        print(f"{name} {metric} {value:.6g} {LAYER_UNITS[metric]}")


def _print_cell(result: dict) -> None:
    name = result["workload"]
    print(
        f"# {name} seed={result['seed']} repetitions={result['repetitions']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"host_slowdown={result['host_slowdown']:.3f}"
    )
    _print_end_to_end(name, result["end_to_end"], result["n"])
    _print_layers(name, result.get("layers", {}))
    by_publication = result.get("gc_frac_by_publication")
    if by_publication:
        shares = " ".join(f"{share:.3f}" for share in by_publication)
        print(f"# {name} process.gc_frac by publication ordinal: {shares}")


# ---------------------------------------------------------------------------
# run: every cell in a fresh subprocess
# ---------------------------------------------------------------------------


def _cpu_times() -> tuple[int, int]:
    """(busy, total) jiffies over all CPUs since boot."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    return sum(fields) - idle, sum(fields)


def _background_busy(window: float = 0.25) -> float:
    """Share of the machine's CPU capacity others use while we sit idle.

    ``/proc/loadavg`` is recorded too, but its 1-minute figure mostly
    shows the cell this harness ran just before."""
    busy_before, total_before = _cpu_times()
    time.sleep(window)
    busy_after, total_after = _cpu_times()
    elapsed = total_after - total_before
    return (busy_after - busy_before) / elapsed if elapsed > 0 else 0.0


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cell_subprocess(name, seed, trace, smoke) -> dict:
    """One cell in a fresh interpreter; returns its full result document."""
    from benchmarks.ledger.cell import OUT_DIR
    from benchmarks.ledger.run import ROOT

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    handle, path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
    os.close(handle)
    command = [
        sys.executable, str(ROOT / "benchmarks" / "ledger" / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", str(int(trace)),
        "--json-out", path,
    ]
    if smoke:
        command.append("--smoke")
    load = os.getloadavg()[0]
    busy = _background_busy()
    noisy = busy > 0.5  # more than 0.5 x nproc cores busy before we start
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=900,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        with open(path, encoding="utf-8") as result_file:
            text = result_file.read()
        if not text:
            raise RuntimeError(
                f"{name}: cell exited {completed.returncode} without a "
                f"result\n{completed.stderr[-2000:]}"
            )
        result = json.loads(text)
    finally:
        os.unlink(path)
    result["loadavg_before"] = load
    result["background_busy"] = busy
    result["noisy"] = noisy
    return result


def run_all(args) -> int:
    from benchmarks.ledger.cell import OUT_DIR

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    # Smoke: the traced cell's own untraced repetition is the end-to-end run.
    repetitions = 0 if args.smoke else REPETITIONS
    cells: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(repetitions):  # round-robin: neighbours in time differ
        for name in names:
            cell = _cell_subprocess(name, args.seed, False, args.smoke)
            cells[name].append(cell)
            if cell["noisy"]:
                print(
                    f"# {name}: {cell['background_busy']:.0%} of the CPUs "
                    f"busy before this repetition (1-minute load "
                    f"{cell['loadavg_before']:.2f}) — flagged noisy"
                )
    traced = {
        name: _cell_subprocess(name, args.seed, True, args.smoke)
        for name in names
    }
    document = {
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(),
        },
        "workloads": {},
    }
    correct = True
    for name in names:
        runs = cells[name] or [traced[name]]
        metrics = {}
        for metric in E2E_UNITS:
            values = [
                run["end_to_end"][metric]
                for run in runs
                if metric in run["end_to_end"]
            ]
            if values:
                metrics[metric] = {
                    "value": statistics.median(values),
                    "unit": E2E_UNITS[metric],
                    "runs": values,
                }
        every = cells[name] + [traced[name]]
        attempted = sum(run["attempted"] for run in every)
        failed = sum(run["failed"] for run in every)
        correct = correct and failed == 0
        document["workloads"][name] = {
            "end_to_end": metrics,
            "n": runs[0]["n"],
            "attempted": attempted,
            "failed": failed,
            "failures": [m for run in every for m in run["failures"]],
            "noisy_repetitions": sum(run["noisy"] for run in runs),
            "loadavg_before": [run["loadavg_before"] for run in runs],
            "background_busy": [run["background_busy"] for run in runs],
            "host_slowdown": [run["host_slowdown"] for run in runs],
            "layers": traced[name]["layers"],
            "gc_frac_by_publication": traced[name].get(
                "gc_frac_by_publication", []
            ),
            "trace_file": traced[name].get("trace_file"),
        }
    both = [document["workloads"].get(n) for n in ("nasa_telemetry", "nasa_sync")]
    if all(both):
        # The one layer metric no single cell can know: telemetry on
        # against off, each side the median of its untraced cells.
        on, off = (entry["end_to_end"]["ingest_rps"]["value"] for entry in both)
        both[0]["layers"]["telemetry.enabled_overhead_frac"] = 1.0 - on / off
    for name in names:
        entry = document["workloads"][name]
        print(
            f"# {name} attempted={entry['attempted']} failed={entry['failed']}"
            f" noisy_repetitions={entry['noisy_repetitions']}"
        )
        _print_end_to_end(
            name,
            {m: v["value"] for m, v in entry["end_to_end"].items()},
            entry["n"],
        )
        for message in entry["failures"]:
            print(f"# FAILED {name}: {message}")
    for name in names:
        _print_layers(name, document["workloads"][name]["layers"])
    out_dir = args.out or OUT_DIR
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"ledger_{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"# wrote {path}; oracle {'passed' if correct else 'FAILED'}")
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _spread(values: list[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def compare(args) -> int:
    """Per workload and end-to-end metric: B against A, bound by bound."""
    with open(args.a, encoding="utf-8") as handle:
        before = json.load(handle)["workloads"]
    with open(args.b, encoding="utf-8") as handle:
        after = json.load(handle)["workloads"]
    breaches = 0
    print(f"{'workload':<16} {'metric':<15} {'A':>11} {'B':>11} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for name in before:
        if name not in after:
            continue
        for metric, _, better, bound in END_TO_END + HARNESS_ONLY:
            a = before[name]["end_to_end"].get(metric)
            b = after[name]["end_to_end"].get(metric)
            if a is None or b is None:
                continue
            base, new = a["value"], b["value"]
            if metric == "failed_frac":
                worse = new - base
                verdict = "BREACH" if worse > 0 else "ok"
            else:
                worse = (new - base) / base if better == "lower" else (base - new) / base
                spread = max(_spread(a["runs"]), _spread(b["runs"]))
                if spread > bound:
                    verdict = f"unresolved (own spread {spread:.1%})"
                elif worse > bound:
                    verdict = "BREACH"
                else:
                    verdict = "ok"
            breaches += verdict == "BREACH"
            print(f"{name:<16} {metric:<15} {base:>11.5g} {new:>11.5g} "
                  f"{worse:>+9.1%} {bound:>6.0%}  {verdict}")
    print(f"# {breaches} breach(es)")
    return 1 if breaches else 0


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("run", "compare"):
        parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
        commands = parser.add_subparsers(dest="command", required=True)
        run = commands.add_parser("run", help="all cells, fresh subprocess each")
        run.add_argument("--workload", choices=[w.name for w in WORKLOADS])
        run.add_argument("--seed", type=int, default=11)
        run.add_argument("--out")
        run.add_argument("--smoke", action="store_true")
        both = commands.add_parser("compare", help="B against A")
        both.add_argument("a")
        both.add_argument("b")
        args = parser.parse_args(argv)
        return run_all(args) if args.command == "run" else compare(args)
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json-out", help=argparse.SUPPRESS)
    return run_one(parser.parse_args(argv))
