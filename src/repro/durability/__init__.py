"""Crash-recovery subsystem for the trusted collector (see docs/DURABILITY.md).

FRESQUE's asynchronous publication design (the merger finishing
publication *p* while the dispatcher already ingests *p+1*) means a
collector crash can strand a half-built index, lose in-flight
``<leaf offset, e-record>`` pairs and — fatally for the DP guarantee —
forget how much of the ε budget was already spent.  This package turns a
crash/restart from a data-loss event into a bounded-replay event:

* :mod:`~repro.durability.journal` — a write-ahead journal the dispatcher
  appends to *before* any pipeline state changes (CRC-framed, torn tails
  truncated on open);
* :mod:`~repro.durability.checkpoint` — atomic (write-temp + fsync +
  rename) snapshots of per-publication collector progress;
* :mod:`~repro.durability.ledger` — the durable two-phase
  (*intent → commit*) ε ledger behind
  :class:`~repro.privacy.accountant.PublicationAccountant`;
* :mod:`~repro.durability.system` — :class:`DurableFresqueSystem`, the
  journaling synchronous driver;
* :mod:`~repro.durability.recovery` — :class:`RecoveryManager`, which
  restores the last checkpoint and replays the journal suffix through
  the ordinary pipeline.
"""

from repro.durability.journal import (
    JournalCorrupt,
    JournalError,
    JournalRecord,
    WriteAheadJournal,
)
from repro.durability.checkpoint import CheckpointStore, atomic_write_bytes
from repro.durability.ledger import BudgetLedger, LedgerState
from repro.durability.recovery import RecoveryManager, RecoveryReport
from repro.durability.system import CollectorCrash, DurableFresqueSystem

__all__ = [
    "BudgetLedger",
    "CheckpointStore",
    "CollectorCrash",
    "DurableFresqueSystem",
    "JournalCorrupt",
    "JournalError",
    "JournalRecord",
    "LedgerState",
    "RecoveryManager",
    "RecoveryReport",
    "WriteAheadJournal",
    "atomic_write_bytes",
]
