"""Shared infrastructure for the figure/table reproduction benchmarks.

Every ``bench_*`` module reproduces one table or figure of the paper:
it recomputes the series with the calibrated simulation (or the real code,
where Python-scale is enough), prints the same rows the paper reports, and
exposes at least one ``pytest-benchmark`` measurement of the underlying
code path.  Printed outputs are also appended to ``benchmarks/out/`` so
EXPERIMENTS.md can cite them.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pathlib

from repro.simulation.costs import GOWALLA_COSTS, NASA_COSTS, CostModel
from repro.simulation.events import EventLoop
from repro.simulation.pipelines import (
    build_fresque,
    build_intake_only,
    build_nonparallel_pp,
    build_parallel_pp,
)
from repro.telemetry.exporters import write_bench_json

#: Computing-node counts swept in the paper's Figures 9–14.
NODE_SWEEP = (2, 4, 6, 8, 10, 12)

#: The 200k records/s source of Section 7.1.
SOURCE_RATE = 200_000.0

#: Publishing time interval (seconds) of Section 7.1.
PUBLISH_INTERVAL = 60.0

#: Both evaluation datasets, as (name, cost model) pairs.
DATASETS: tuple[tuple[str, CostModel], ...] = (
    ("nasa", NASA_COSTS),
    ("gowalla", GOWALLA_COSTS),
)

#: Table 2 of the paper: the simulated cluster's machine shapes.
TABLE_2 = {
    "dispatcher": {"cpus": 4, "memory_gb": 8, "disk_gb": 80},
    "merger": {"cpus": 4, "memory_gb": 8, "disk_gb": 80},
    "checking node": {"cpus": 4, "memory_gb": 8, "disk_gb": 80},
    "computing node": {"cpus": 2, "memory_gb": 2, "disk_gb": 20},
    "data source": {"cpus": 4, "memory_gb": 16, "disk_gb": 80},
    "cloud": {"cpus": 16, "memory_gb": 64, "disk_gb": 160},
}

_OUT_DIR = pathlib.Path(__file__).parent / "out"


def simulate_throughput(
    system: str,
    costs: CostModel,
    computing_nodes: int = 0,
    duration: float = 2.0,
    rate: float = SOURCE_RATE,
) -> float:
    """Measure one system's sustained ingest rate in the DES.

    ``system`` is one of ``fresque``, ``parallel_pp``, ``nonparallel_pp``,
    ``intake`` (the Figure 12 no-processing reference).
    """
    loop = EventLoop()
    if system == "fresque":
        sim = build_fresque(loop, costs, computing_nodes)
    elif system == "parallel_pp":
        sim = build_parallel_pp(loop, costs, computing_nodes)
    elif system == "nonparallel_pp":
        sim = build_nonparallel_pp(loop, costs)
    elif system == "intake":
        sim = build_intake_only(loop, costs)
    else:
        raise ValueError(f"unknown system {system!r}")
    return sim.run(rate=rate, duration=duration, warmup=0.5, seed=42)


def format_series(title: str, header: list[str], rows: list[list]) -> str:
    """Render one figure's data as an aligned text table."""
    widths = [
        max(len(str(header[col])), max((len(str(r[col])) for r in rows), default=0))
        for col in range(len(header))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def emit(figure_id: str, text: str) -> None:
    """Print a figure's reproduction and persist it under benchmarks/out."""
    print()
    print(text)
    _OUT_DIR.mkdir(exist_ok=True)
    (_OUT_DIR / f"{figure_id}.txt").write_text(text + "\n")


def emit_series(
    figure_id: str, title: str, header: list[str], rows: list[list]
) -> None:
    """Emit one figure's series as text *and* machine-readable JSON.

    The text table goes to stdout and ``benchmarks/out/<id>.txt`` as
    before; the same rows are also written to ``benchmarks/out/
    BENCH_<id>.json`` through the telemetry JSON exporter so the perf
    trajectory can be diffed across runs without re-parsing tables.
    """
    emit(figure_id, format_series(title, header, rows))
    _OUT_DIR.mkdir(exist_ok=True)
    write_bench_json(
        _OUT_DIR / f"BENCH_{figure_id}.json",
        figure_id,
        {"title": title, "header": list(header), "rows": [list(r) for r in rows]},
    )


def thousands(value: float) -> str:
    """Format a throughput as e.g. ``142.3k``."""
    return f"{value / 1000:.1f}k"


def milliseconds(value: float) -> str:
    """Format seconds as milliseconds."""
    return f"{value * 1000:.1f} ms"
