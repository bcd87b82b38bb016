"""Exporters: JSON lines, Prometheus text format, console table.

Three consumers, three formats:

* **JSON lines** — the machine-readable recording a run leaves behind
  (metrics snapshot + retained spans, one JSON object per line).  This
  is what ``python -m repro.telemetry.report`` renders and what the
  ``BENCH_*.json`` artifacts are built from.
* **Prometheus text** — scrape-compatible exposition of the registry.
* **Console table** — the per-stage latency/throughput breakdown a
  human reads after a run.
"""

from __future__ import annotations

import json
import pathlib
import platform
from typing import Iterable

from repro.telemetry.registry import MetricSample
from repro.telemetry.spans import PUBLICATION_SPAN, STAGES, Span

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------


def metric_to_dict(sample: MetricSample) -> dict:
    """One metric sample as a JSON-ready dict."""
    out = {
        "type": "metric",
        "kind": sample.kind,
        "name": sample.name,
        "labels": dict(sample.labels),
        "value": sample.value,
    }
    if sample.kind == "histogram":
        out["sum"] = sample.sum
        out["buckets"] = [
            ["+Inf" if bound == float("inf") else bound, count]
            for bound, count in sample.buckets
        ]
    return out


def span_to_dict(span: Span) -> dict:
    """One span as a JSON-ready dict."""
    return {
        "type": "span",
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "publication": span.publication,
        "start": span.start,
        "end": span.end,
    }


def write_jsonl(path, telemetry, meta: dict | None = None) -> pathlib.Path:
    """Write one run's recording (meta + metrics + spans) as JSON lines."""
    path = pathlib.Path(path)
    lines = [
        json.dumps(
            {
                "type": "meta",
                "format": FORMAT_VERSION,
                "python": platform.python_version(),
                **(meta or {}),
            }
        )
    ]
    lines.extend(
        json.dumps(metric_to_dict(sample))
        for sample in telemetry.registry.samples()
    )
    lines.extend(
        json.dumps(span_to_dict(span)) for span in telemetry.recorder.spans()
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_jsonl(path) -> tuple[dict, list[dict], list[dict]]:
    """Load a recording back: ``(meta, metric dicts, span dicts)``."""
    meta: dict = {}
    metrics: list[dict] = []
    spans: list[dict] = []
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        entry = json.loads(line)
        kind = entry.get("type")
        if kind == "meta":
            meta = entry
        elif kind == "metric":
            metrics.append(entry)
        elif kind == "span":
            spans.append(entry)
    return meta, metrics, spans


def write_bench_json(path, bench: str, data: dict) -> pathlib.Path:
    """Write one benchmark's machine-readable ``BENCH_*.json`` artifact.

    The envelope is stable (``bench``, ``format``, ``python``, ``data``)
    so the perf trajectory can diff runs across PRs.
    """
    path = pathlib.Path(path)
    payload = {
        "bench": bench,
        "format": FORMAT_VERSION,
        "python": platform.python_version(),
        "data": data,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------


def _label_text(labels: Iterable[tuple[str, str]], extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry) -> str:
    """Render the registry in the Prometheus exposition format."""
    lines: list[str] = []
    typed: set[str] = set()
    for sample in registry.samples():
        if sample.name not in typed:
            typed.add(sample.name)
            lines.append(f"# TYPE {sample.name} {sample.kind}")
        if sample.kind == "histogram":
            cumulative = 0
            for bound, count in sample.buckets:
                cumulative += count
                labels = _label_text(
                    sample.labels, f'le="{_format_value(bound)}"'
                )
                lines.append(f"{sample.name}_bucket{labels} {cumulative}")
            labels = _label_text(sample.labels)
            lines.append(f"{sample.name}_sum{labels} {sample.sum!r}")
            lines.append(
                f"{sample.name}_count{labels} {_format_value(sample.value)}"
            )
        else:
            labels = _label_text(sample.labels)
            lines.append(
                f"{sample.name}{labels} {_format_value(sample.value)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Console table
# ---------------------------------------------------------------------------


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[col]), max((len(r[col]) for r in rows), default=0))
        for col in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def _stage_rows(stage_stats: dict[str, dict]) -> list[list[str]]:
    total_time = sum(s["sum"] for s in stage_stats.values()) or 1.0
    rows = []
    for stage in STAGES:
        stats = stage_stats.get(
            stage, {"count": 0, "sum": 0.0, "mean": 0.0, "p95": 0.0}
        )
        rows.append(
            [
                stage,
                str(int(stats["count"])),
                f"{stats['sum'] * 1000:.2f}",
                f"{stats['mean'] * 1e6:.1f}",
                f"{stats['p95'] * 1e6:.1f}",
                f"{stats['sum'] / total_time:6.1%}",
            ]
        )
    return rows


def stage_table(stage_stats: dict[str, dict], title: str = "per-stage latency") -> str:
    """Render the seven-stage latency breakdown as an aligned table.

    ``stage_stats`` maps stage name to ``{"count", "sum", "mean",
    "p95"}`` (seconds).
    """
    lines = [title, "=" * len(title)]
    lines.extend(
        _table(
            ["stage", "ops", "total ms", "mean µs", "p95 µs", "share"],
            _stage_rows(stage_stats),
        )
    )
    return "\n".join(lines)


def live_stage_stats(telemetry) -> dict[str, dict]:
    """Per-stage stats straight from a live telemetry facade."""
    stats: dict[str, dict] = {}
    for stage in STAGES:
        histogram = telemetry.stage_histogram(stage)
        stats[stage] = {
            "count": histogram.count,
            "sum": histogram.sum,
            "mean": histogram.mean(),
            "p95": histogram.quantile(0.95),
        }
    return stats


def console_report(telemetry, title: str = "telemetry report") -> str:
    """Full console rendering: stage table + publication roots + counters."""
    lines = [stage_table(live_stage_stats(telemetry), title=title)]
    roots = [
        span
        for span in telemetry.recorder.spans()
        if span.name == PUBLICATION_SPAN
    ]
    if roots:
        lines.append("")
        lines.extend(
            _table(
                ["publication", "duration ms", "stage spans"],
                [
                    [
                        str(root.publication),
                        f"{root.duration * 1000:.2f}",
                        str(len(telemetry.recorder.children_of(root.span_id))),
                    ]
                    for root in roots
                ],
            )
        )
    counters = [
        sample
        for sample in telemetry.registry.samples()
        if sample.kind in ("counter", "gauge")
    ]
    if counters:
        lines.append("")
        lines.extend(
            _table(
                ["metric", "value"],
                [
                    [
                        sample.name + _label_text(sample.labels),
                        _format_value(sample.value),
                    ]
                    for sample in counters
                ],
            )
        )
    return "\n".join(lines)
