"""Checkpointed crash recovery for the durable collector.

:class:`RecoveryManager` rebuilds a :class:`DurableFresqueSystem` after a
process crash:

1. **ε first** — the accountant is restored from the fsync'd ledger;
   every intent counts as spent, committed or not, so the recovered
   budget is never larger than what the crashed process durably granted.
2. **Checkpoint** — the newest readable checkpoint's component snapshots
   (dispatcher, checking node, merger) are restored, positioning the
   pipeline exactly at the checkpoint's journal watermark.
3. **Cloud reconcile** — the cloud (a different machine; it survived)
   may hold pairs the checkpoint does not cover, or whole publications
   the journal never saw committed.  In-flight publications are trimmed
   back to the checkpointed pair count (or discarded entirely when
   recovering without a checkpoint); publications the cloud finished
   are committed now — the receipt exists, only the acknowledgement was
   lost.
4. **Replay** — the journal suffix past the watermark is replayed
   through the ordinary pipeline: ``open`` records re-open publications
   with their journalled noise plan (no new ε is granted), ``raw``
   records re-dispatch, ``close`` records re-publish.  Replayed pairs
   for publications the cloud already finished are deduped by
   publication number at the cloud, so at-least-once replay yields
   exactly-once publication.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field

from repro.cloud.node import FresqueCloud
from repro.core.config import FresqueConfig
from repro.crypto.cipher import RecordCipher
from repro.durability.journal import (
    CLOSE,
    COMMIT,
    OPEN,
    RAW_BATCH,
    JournalCorrupt,
)
from repro.durability.ledger import BudgetLedger
from repro.durability.system import DurableFresqueSystem
from repro.privacy.accountant import PublicationAccountant
from repro.telemetry.context import coalesce


@dataclass
class RecoveryReport:
    """What one recovery pass did.

    Parameters
    ----------
    checkpoint_used:
        Whether a readable checkpoint bounded the replay.
    watermark:
        Journal seq the checkpoint covered (``-1`` without one).
    replayed_records:
        Journal entries replayed past the watermark (all types).
    replayed_raw:
        Raw-line entries among them (records re-dispatched).
    reset_publications:
        In-flight publications discarded at the cloud for from-scratch
        replay.
    truncated_pairs:
        Cloud pairs trimmed back to the checkpointed count.
    committed_publications:
        Publications whose lost acknowledgement was healed (the cloud
        had finished them before the crash).
    recovery_seconds:
        Wall-clock duration of the whole pass.
    """

    checkpoint_used: bool = False
    watermark: int = -1
    replayed_records: int = 0
    replayed_raw: int = 0
    reset_publications: list[int] = field(default_factory=list)
    truncated_pairs: int = 0
    committed_publications: list[int] = field(default_factory=list)
    recovery_seconds: float = 0.0


class RecoveryManager:
    """Rebuilds a durable collector from its on-disk state.

    Parameters
    ----------
    config, cipher, seed, telemetry:
        As for :class:`DurableFresqueSystem`; the seed feeds the fresh
        randomness of the recovered process (noise values of future
        publications, randomer evictions — any uniform draw satisfies
        the paper's guarantees, so recovery does not restore RNG state).
    data_dir:
        The crashed collector's durable directory.
    cloud:
        The surviving cloud node.
    horizon, total_epsilon, checkpoint_every, sync_every:
        Forwarded to the rebuilt :class:`DurableFresqueSystem`.
    """

    def __init__(
        self,
        config: FresqueConfig,
        cipher: RecordCipher,
        data_dir,
        *,
        cloud: FresqueCloud,
        seed: int | None = None,
        telemetry=None,
        horizon: int = 52,
        total_epsilon: float | None = None,
        checkpoint_every: int = 32,
        sync_every: int = 256,
    ):
        self.config = config
        self.cipher = cipher
        self.data_dir = pathlib.Path(data_dir)
        self.cloud = cloud
        self.seed = seed
        self.telemetry = telemetry
        self.horizon = horizon
        self.total_epsilon = (
            total_epsilon
            if total_epsilon is not None
            else config.epsilon * horizon
        )
        self.checkpoint_every = checkpoint_every
        self.sync_every = sync_every
        tel = coalesce(telemetry)
        self._replayed_counter = tel.counter("recovery_replayed_records_total")
        self._recoveries_counter = tel.counter("recovery_runs_total")
        self._seconds_histogram = tel.histogram("recovery_seconds")
        self._tel = tel

    def recover(self) -> tuple[DurableFresqueSystem, RecoveryReport]:
        """Run the full recovery pass; returns the live system + report."""
        start = time.perf_counter()
        report = RecoveryReport()

        # 1. ε first: the ledger is the authority on spent budget.
        ledger = BudgetLedger(self.data_dir / "epsilon.ledger")
        accountant = PublicationAccountant.restore(
            self.total_epsilon, self.horizon, ledger
        )

        system = DurableFresqueSystem(
            self.config,
            self.cipher,
            self.data_dir,
            seed=self.seed,
            telemetry=self.telemetry,
            cloud=self.cloud,
            horizon=self.horizon,
            total_epsilon=self.total_epsilon,
            accountant=accountant,
            checkpoint_every=self.checkpoint_every,
            sync_every=self.sync_every,
        )

        # 2. Restore the newest readable checkpoint, if any.
        state = system.checkpoints.latest()
        open_publications: set[int] = set()
        pairs_sent: dict[int, int] = {}
        if state is not None:
            report.checkpoint_used = True
            report.watermark = state["watermark"]
            system.dispatcher.restore(state["dispatcher"])
            system.checking.restore(state["checking"])
            system.merger.restore(state["merger"])
            system._started = True
            system._last_seq = state["watermark"]
            open_publications = set(state["open_publications"])
            pairs_sent = {
                int(pub): count for pub, count in state["pairs_sent"].items()
            }
        system._open_publications = set(open_publications)

        # 3. Reconcile the surviving cloud against the durable state.
        self._reconcile_cloud(system, report, open_publications, pairs_sent)

        # 4. Replay the journal suffix through the ordinary pipeline.
        self._replay(system, report)

        # A post-recovery checkpoint makes a crash *during the next
        # interval* replay from here, not from the pre-crash checkpoint.
        if system._started:
            system.checkpoint()

        report.recovery_seconds = time.perf_counter() - start
        self._recoveries_counter.inc()
        self._seconds_histogram.observe(report.recovery_seconds)
        # The flight recorder accepts arbitrary span names (unlike
        # observe_stage, whose stage set is fixed).
        self._tel.recorder.record(
            "recovery", -1, 0.0, report.recovery_seconds
        )
        return system, report

    def _reconcile_cloud(
        self,
        system: DurableFresqueSystem,
        report: RecoveryReport,
        open_publications: set[int],
        pairs_sent: dict[int, int],
    ) -> None:
        """Trim or discard pre-crash cloud state the replay regenerates."""
        for publication in sorted(open_publications):
            if self.cloud.is_published(publication):
                # The cloud finished the publication; only the collector's
                # acknowledgement was lost.  Heal the commit now.
                system.accountant.commit(publication)
                system.journal.append_commit(publication)
                system._open_publications.discard(publication)
                report.committed_publications.append(publication)
            elif publication in pairs_sent:
                report.truncated_pairs += self.cloud.truncate_publication(
                    publication, pairs_sent[publication]
                )
            else:
                # Open at the crash but not covered by the checkpoint:
                # replay rebuilds it from its journalled start.
                if self.cloud.reset_publication(publication):
                    report.reset_publications.append(publication)
        if report.checkpoint_used:
            return
        # No checkpoint: every uncommitted grant replays from scratch.
        for publication in sorted(system.accountant.uncommitted_grants()):
            if self.cloud.is_published(publication):
                system.accountant.commit(publication)
                system.journal.append_commit(publication)
                report.committed_publications.append(publication)
            elif self.cloud.reset_publication(publication):
                report.reset_publications.append(publication)

    def _replay(
        self, system: DurableFresqueSystem, report: RecoveryReport
    ) -> None:
        for record in system.journal.replay(after_seq=report.watermark):
            if record.type == OPEN:
                # Even a publication the cloud already finished is
                # re-opened (its messages bounce off the cloud's dedupe):
                # the dispatcher must advance its publication counter so
                # later opens line up with their journalled numbers.
                system._replay_open(record.publication, record.plan)
            elif record.type == RAW_BATCH:
                system._replay_raw_batch(record.lines)
                report.replayed_raw += len(record.lines)
            elif record.type == CLOSE:
                system._replay_close(record.publication)
            elif record.type == COMMIT:
                system.accountant.commit(record.publication)
                system._open_publications.discard(record.publication)
            else:
                raise JournalCorrupt(
                    f"unknown journal record type {record.type!r}"
                )
            report.replayed_records += 1
            self._replayed_counter.inc()
