"""The journaling (crash-safe) synchronous FRESQUE driver.

:class:`DurableFresqueSystem` wraps the ordinary
:class:`~repro.core.system.FresqueSystem` pipeline with the durability
protocol of docs/DURABILITY.md:

* every raw line is appended to the :class:`WriteAheadJournal` (in the
  ``rawb`` frame of its chunk — a chunk of one for :meth:`ingest`)
  *before* the dispatcher sees it (the ordering the crash drills in
  ``tests/durability/test_batch_crash.py`` and ``test_recovery.py``
  pin), so a crash at any point can lose at most work the journal can
  replay;
* publication opens are journalled *with* their noise plan and granted
  ε, after the :class:`~repro.privacy.accountant.PublicationAccountant`
  fsync'd its ledger intent — replay rebuilds the publication with the
  exact noise and the exact spend of the original;
* publication closes and cloud acknowledgements are journalled so
  recovery knows which publications completed;
* between pump steps (quiescent points) the driver periodically saves an
  atomic checkpoint — dispatcher/checking/merger snapshots plus the
  per-publication count of pairs already delivered to the cloud — which
  bounds how much journal suffix recovery must replay.

Each journalled chunk is dispatched as one run
(:meth:`~repro.core.dispatcher.Dispatcher.on_run`), and replay sends a
journalled chunk the same way.

Crash injection: a :class:`~repro.runtime.faults.FaultPlan` with a
``crash_collector`` rule makes ingestion raise :class:`CollectorCrash`
*after* the journal append and *before* a record's dispatch — the
worst-case window recovery must close.  The plan is asked once per
chunk how many records survive; that prefix is dispatched first.
"""

from __future__ import annotations

import pathlib

from repro.cloud.node import FresqueCloud
from repro.core.config import FresqueConfig
from repro.core.system import FresqueSystem
from repro.crypto.cipher import RecordCipher
from repro.durability.checkpoint import CheckpointStore
from repro.durability.journal import WriteAheadJournal
from repro.durability.ledger import BudgetLedger
from repro.index.perturb import NoisePlan, draw_noise_plan
from repro.index.tree import IndexTree
from repro.privacy.accountant import PublicationAccountant


class CollectorCrash(RuntimeError):
    """Raised by the fault-injected driver to simulate a process crash."""


class DurableFresqueSystem(FresqueSystem):
    """A FRESQUE collector whose state survives a crash of the process.

    Parameters
    ----------
    config, cipher, seed, telemetry:
        As for :class:`~repro.core.system.FresqueSystem`.
    data_dir:
        Directory for the collector's durable state: ``journal.wal``,
        ``epsilon.ledger`` and ``checkpoints/``.
    cloud:
        Pre-built cloud (it is a *different* machine and survives a
        collector crash); a fresh in-memory one when omitted.
    horizon:
        Publications the ε budget must last for (accountant horizon).
    total_epsilon:
        Overall budget; defaults to ``config.epsilon * horizon`` so each
        granted share equals the ``config.epsilon`` the plain driver
        spends per publication.
    accountant:
        Pre-restored accountant (recovery path); freshly built over the
        data dir's ledger when omitted.
    checkpoint_every:
        Take a checkpoint after this many journalled raw records
        (``0`` disables periodic checkpoints; publication boundaries
        always checkpoint).
    sync_every:
        Journal fsync cadence, see :class:`WriteAheadJournal`.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan`; its
        ``crash_collector`` rule is consulted once per ingested chunk.
    """

    def __init__(
        self,
        config: FresqueConfig,
        cipher: RecordCipher,
        data_dir,
        seed: int | None = None,
        telemetry=None,
        cloud: FresqueCloud | None = None,
        horizon: int = 52,
        total_epsilon: float | None = None,
        accountant: PublicationAccountant | None = None,
        checkpoint_every: int = 32,
        sync_every: int = 256,
        fault_plan=None,
    ):
        super().__init__(config, cipher, seed=seed, telemetry=telemetry, cloud=cloud)
        self.data_dir = pathlib.Path(data_dir)
        self.journal = WriteAheadJournal(
            self.data_dir / "journal.wal",
            sync_every=sync_every,
            telemetry=telemetry,
        )
        self.checkpoints = CheckpointStore(self.data_dir / "checkpoints")
        if accountant is None:
            ledger = BudgetLedger(self.data_dir / "epsilon.ledger")
            accountant = PublicationAccountant(
                total_epsilon
                if total_epsilon is not None
                else config.epsilon * horizon,
                horizon,
                ledger=ledger,
            )
        self.accountant = accountant
        self.checkpoint_every = checkpoint_every
        self.fault_plan = fault_plan
        self._tree_shape = IndexTree(config.domain, fanout=config.fanout)
        #: Journal seq of the last record applied to the pipeline.
        self._last_seq = -1
        self._records_since_checkpoint = 0
        #: Publications opened but not yet cloud-acknowledged.
        self._open_publications: set[int] = set()
        self._checkpoints_counter = self.telemetry.counter(
            "durability_checkpoints_total"
        )

    # ------------------------------------------------------------------
    # Durable publication lifecycle
    # ------------------------------------------------------------------

    def _open_publication(self) -> None:
        """Boundary hook: grant ε, journal the open (plan included),
        start the interval.

        Ordering is the whole point: ledger intent (inside
        :meth:`~repro.privacy.accountant.PublicationAccountant.grant`),
        then journal ``open``, then any in-memory pipeline state.
        """
        grant = self.accountant.grant()
        plan = draw_noise_plan(
            self._tree_shape, grant.epsilon, rng=self.dispatcher._rng
        )
        self._last_seq = self.journal.append_open(
            grant.publication, plan, grant.epsilon
        )
        self._open_publications.add(grant.publication)
        self._send_all(self.dispatcher.start_publication(plan))
        if self.dispatcher.publication != grant.publication:
            raise RuntimeError(
                f"grant {grant.publication} does not match dispatcher "
                f"publication {self.dispatcher.publication}"
            )

    def _end_publication(self) -> None:
        """Journal ``close``, flush the pipeline, and — once the cloud's
        receipt is in — commit the ε grant (ledger second phase) and
        journal ``commit``.  Without a receipt (e.g. under injected
        faults) the grant stays uncommitted for recovery to settle."""
        publication = self.dispatcher.publication
        self._last_seq = self.journal.append_close(publication)
        self._send_all(self.dispatcher.end_publication())
        if self._receipt(publication) is not None:
            self._commit_publication(publication)

    def ingest(self, line: str) -> None:
        """Journal one raw line, then feed it to the pipeline: a chunk
        of one (:meth:`_ingest_chunk`)."""
        if not self._started:
            raise RuntimeError("call start() first")
        self._ingest_chunk([line])

    def ingest_batch(self, lines: list[str]) -> None:
        """Journal and feed ``lines`` in dispatcher-batch-sized chunks.

        Each chunk is journalled as one ``rawb`` frame — one write for
        the whole batch — before any of its records reach the pipeline.
        """
        if not self._started:
            raise RuntimeError("call start() first")
        size = self.config.batch_size
        for start in range(0, len(lines), size):
            self._ingest_chunk(lines[start : start + size])

    def _ingest_chunk(self, lines, fractions=None) -> None:
        """Journal one chunk as a single frame, then dispatch it as one
        run.

        Journal-first holds chunk-wide: the journal frame lands before
        any of the chunk's records mutate pipeline state.  The fault
        plan is asked once how many of the chunk's records survive; the
        crash fires after that prefix is dispatched and before the next
        record is — the crash point a per-record hook gives, and the
        worst one (durably ingested, never dispatched).
        """
        if not lines:
            return
        self._last_seq = self.journal.append_raw_batch(
            self.dispatcher.publication, lines
        )
        survivors = len(lines)
        if self.fault_plan is not None:
            survivors = self.fault_plan.on_collector_records(survivors)
        super()._ingest_chunk(
            lines[:survivors],
            None if fractions is None else fractions[:survivors],
        )
        if survivors < len(lines):
            raise CollectorCrash(
                f"injected crash after journal seq {self._last_seq}"
            )
        self._note_ingested(len(lines))

    def _note_ingested(self, records: int) -> None:
        """Checkpoint once ``checkpoint_every`` records have gone by."""
        self._records_since_checkpoint += records
        if (
            self.checkpoint_every
            and self._records_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()

    def finish_publication(self, timeout: float = 120.0):
        """Close the current publication through the journalled
        boundary hooks, open the next one and checkpoint.  Returns the
        receipt (``None`` if the publication could not complete, e.g.
        under injected faults)."""
        receipt = super().finish_publication(timeout)
        self.checkpoint()
        return receipt

    def _commit_publication(self, publication: int) -> None:
        self.accountant.commit(publication)
        self._last_seq = self.journal.append_commit(publication)
        self._open_publications.discard(publication)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Save an atomic snapshot of the collector's progress.

        Called only at quiescent points (the pump loop has drained), so
        the snapshot is a consistent cut: every journalled record with
        ``seq <= watermark`` is fully reflected in it, every later one
        not at all — and every shipped batch is admitted, so none is
        retained for a crash re-send; one that is raises.
        """
        if (oldest := self.dispatcher.oldest_unadmitted) is not None:
            raise RuntimeError(f"not a quiescent cut: seq {oldest} unadmitted")
        pairs_sent = {
            str(pub): self.cloud.pair_count(pub)
            for pub in self._open_publications
            if not self.cloud.is_published(pub)
        }
        self.checkpoints.save(
            {
                "watermark": self._last_seq,
                "open_publications": sorted(self._open_publications),
                "pairs_sent": pairs_sent,
                "dispatcher": self.dispatcher.snapshot(),
                "checking": self.checking.snapshot(),
                "merger": self.merger.snapshot(),
            }
        )
        self._records_since_checkpoint = 0
        self._checkpoints_counter.inc()

    def close(self) -> None:
        """Sync and close the journal and the ledger."""
        self.journal.close()
        self.accountant.close()

    # ------------------------------------------------------------------
    # Replay hooks (used by RecoveryManager)
    # ------------------------------------------------------------------

    def _replay_open(self, publication: int, plan: NoisePlan) -> None:
        """Re-open a journalled publication without granting new ε."""
        self._started = True
        self._open_publications.add(publication)
        self._send_all(self.dispatcher.start_publication(plan))
        if self.dispatcher.publication != publication:
            from repro.durability.journal import JournalCorrupt

            raise JournalCorrupt(
                f"journalled open of publication {publication} replayed as "
                f"{self.dispatcher.publication}"
            )

    def _replay_raw_batch(self, lines: tuple[str, ...]) -> None:
        """Re-dispatch one journalled chunk as one run (no journal
        append, no dummy released)."""
        self._send_all(self.dispatcher.on_run(lines))

    def _replay_close(self, publication: int) -> None:
        """Re-run a journalled interval end; commit if the cloud acked."""
        self._send_all(self.dispatcher.end_publication())
        receipt = self._receipt(publication)
        if receipt is None and self.cloud.is_published(publication):
            receipt = self.cloud.receipt_for(publication)
        if receipt is not None:
            self._commit_publication(publication)
