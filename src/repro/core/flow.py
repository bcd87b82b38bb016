"""Flow control for the ingestion path (docs/BATCHING.md).

Batch size and flush delay are plain configuration
(``config.batch_size`` / ``config.max_batch_delay``, read by the
dispatcher).  One mechanism keeps memory bounded under bursty,
sustained traffic: :class:`CreditGate`, credit-based backpressure
between the checking node and the dispatcher.  Flushing a batch
consumes one credit per record; the checking node grants credits back
as it processes each :class:`~repro.core.messages.PairBatch`
(:class:`~repro.core.messages.CreditGrant`).  When credits run dry the
dispatcher parks flushed batches, in order, in a deferred queue instead
of releasing them — bounding the records in flight toward the trusted
checking node.  The publication-close drain releases everything, so
credit loss (a dropped grant, records rejected as malformed at a
computing node) can defer work but never lose it.  The gate takes part
in the dispatcher's ``snapshot()``/``restore()``, so crash recovery
restores the credit window and its deferred batches too.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.core.messages import RawBatch
from repro.records.codec import decode_record, encode_record
from repro.telemetry.context import coalesce

class CreditGate:
    """Credit-based backpressure from the checking node.

    Thread-safe: grants arrive on runtime threads (the threaded
    cluster's dispatcher inbox, a TCP node worker) while the driver
    thread flushes.  Credits may overdraw by up to one batch — a send
    is allowed whenever *any* credit is available — so a batch larger
    than the window still makes progress.  Grants are capped back to
    the window, so over-generous grants (dummies are granted back too)
    cannot grow the window without bound.
    """

    def __init__(self, window: int, telemetry=None):
        self.window = window
        self.enabled = window > 0
        self._available = window
        self._lock = threading.Lock()
        self._deferred: deque[tuple[str, RawBatch]] = deque()
        tel = coalesce(telemetry)
        self._available_gauge = tel.gauge("flow_credits_available")
        self._deferred_gauge = tel.gauge("flow_deferred_records")
        self._deferrals_counter = tel.counter("flow_deferrals_total")
        if self.enabled:
            self._available_gauge.set(float(window))

    @property
    def available(self) -> int:
        """Credits currently available (may be briefly negative)."""
        with self._lock:
            return self._available

    @property
    def deferred_batches(self) -> int:
        """Batches parked behind exhausted credits."""
        with self._lock:
            return len(self._deferred)

    def try_send(self, destination: str, batch: RawBatch) -> bool:
        """Consume credits for ``batch`` or park it; True means *send now*.

        FIFO: while anything is deferred, new batches defer behind it
        regardless of available credits, so seq order is preserved.
        """
        if not self.enabled:
            return True
        with self._lock:
            if self._deferred or self._available <= 0:
                self._deferred.append((destination, batch))
                self._deferrals_counter.inc()
                self._publish()
                return False
            self._available -= len(batch.items)
            self._publish()
            return True

    def grant(self, records: int) -> list[tuple[str, RawBatch]]:
        """Credit ``records`` back; return deferred batches now sendable."""
        if not self.enabled:
            return []
        released: list[tuple[str, RawBatch]] = []
        with self._lock:
            self._available = min(self.window, self._available + records)
            while self._deferred and self._available > 0:
                destination, batch = self._deferred.popleft()
                self._available -= len(batch.items)
                released.append((destination, batch))
            self._publish()
        return released

    def refund(self, records: int) -> list[tuple[str, RawBatch]]:
        """Return the credits of a batch whose node died before reading it.

        ``try_send`` charged the window when the batch first left; if
        the destination crashed, the checking node may never see the
        batch (dropped inbox frames), so the grant that
        would have repaid those credits never arrives.  The redispatch
        path refunds them instead — without this, a dry window after
        ``mark_node_down`` deadlocks the dispatcher (deferred batches
        wait on grants that are never coming).  If the batch *does*
        reach the checking node through a survivor, the extra grant is
        absorbed by the window cap, so refunding can only unstick the
        pipeline, never grow the window.  Returns the deferred batches
        the refund released.
        """
        return self.grant(records)

    def drain(self) -> list[tuple[str, RawBatch]]:
        """Release every deferred batch and refill the window.

        Called at publication close: the close flush must reach the
        computing nodes before the *publishing* broadcast, credits or
        not, and the window resets at the publication boundary (which
        also repairs any credits leaked to malformed records).
        """
        if not self.enabled:
            return []
        with self._lock:
            released = list(self._deferred)
            self._deferred.clear()
            self._available = self.window
            self._publish()
        return released

    def _publish(self) -> None:
        # Callers hold self._lock; gauges are themselves thread-safe.
        self._available_gauge.set(float(self._available))
        self._deferred_gauge.set(
            float(sum(len(batch.items) for _, batch in self._deferred))
        )

    def snapshot(self) -> dict:
        """JSON-able gate state, deferred batches included."""
        with self._lock:
            return {
                "available": self._available,
                "deferred": [
                    [
                        destination,
                        batch.publication,
                        batch.seq,
                        batch.ordinal,
                        [
                            ["line", item]
                            if isinstance(item, str)
                            else ["record", encode_record(item)]
                            for item in batch.items
                        ],
                    ]
                    for destination, batch in self._deferred
                ],
            }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot`."""
        with self._lock:
            self._available = int(state["available"])
            self._deferred = deque(
                (
                    destination,
                    RawBatch(
                        publication,
                        tuple(
                            payload
                            if kind == "line"
                            else decode_record(payload)
                            for kind, payload in items
                        ),
                        seq=seq,
                        ordinal=ordinal,
                    ),
                )
                for destination, publication, seq, ordinal, items in state[
                    "deferred"
                ]
            )
            self._publish()

