"""Collector observability.

Aggregates the per-component counters every node already maintains into a
single snapshot an operator can log each publishing interval — the kind of
instrumentation the paper's throughput plots were produced from.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CollectorStats:
    """Point-in-time counters of a FRESQUE deployment.

    Parameters mirror the pipeline: what the dispatcher forwarded, what
    the computing nodes parsed/encrypted/rejected, what the checking node
    processed (dummies passed, records removed), and what reached the
    cloud.
    """

    records_dispatched: int
    dummies_generated: int
    lines_parsed: int
    records_encrypted: int
    records_rejected: int
    pairs_checked: int
    dummies_passed: int
    records_removed: int
    cloud_records: int
    cloud_bytes: int
    publications_done: int

    def ingest_accounting_consistent(self) -> bool:
        """Sanity invariants across the pipeline's accounting:

        * the checker never processes more pairs than the computing nodes
          encrypted;
        * it never passes more dummies than the dispatcher generated;
        * the cloud never stores more records than the checker forwarded
          (checked pairs that were not removed, counting the removed
          records that re-enter via the merger's overflow arrays).
        """
        return (
            self.pairs_checked <= self.records_encrypted
            and self.dummies_passed <= self.dummies_generated
            and self.cloud_records <= self.pairs_checked + self.records_removed
        )

    def render(self) -> str:
        """Human-readable one-block summary."""
        lines = [
            "collector stats",
            f"  dispatched:   {self.records_dispatched} records "
            f"({self.dummies_generated} dummies generated)",
            f"  computing:    {self.lines_parsed} parsed, "
            f"{self.records_encrypted} encrypted, "
            f"{self.records_rejected} rejected",
            f"  checking:     {self.pairs_checked} pairs "
            f"({self.dummies_passed} dummies, "
            f"{self.records_removed} removed)",
            f"  cloud:        {self.cloud_records} records, "
            f"{self.cloud_bytes} bytes, "
            f"{self.publications_done} publications",
        ]
        return "\n".join(lines)


def collect_stats(system) -> CollectorStats:
    """Snapshot a :class:`~repro.core.system.FresqueSystem` (or any
    runtime built on it, which exposes the same components)."""
    return CollectorStats(
        records_dispatched=system.dispatcher.records_dispatched,
        dummies_generated=system.dispatcher.dummies_generated,
        lines_parsed=sum(node.parsed for node in system.computing_nodes),
        records_encrypted=sum(
            node.encrypted for node in system.computing_nodes
        ),
        records_rejected=sum(
            node.rejected for node in system.computing_nodes
        ),
        pairs_checked=system.checking.pairs_processed,
        dummies_passed=system.checking.dummies_passed,
        records_removed=system.checking.records_removed,
        cloud_records=system.cloud.store.write_ops,
        cloud_bytes=system.cloud.store.bytes_written,
        publications_done=len(system.cloud.engine.published),
    )
