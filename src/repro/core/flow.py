"""Flow control for the ingestion path (docs/BATCHING.md).

Batch size and flush delay are plain configuration
(``config.batch_size`` / ``config.max_batch_delay``, read by the
dispatcher).  Two mechanisms keep memory bounded under bursty,
sustained traffic:

``CreditGate``
    Credit-based backpressure between the checking node and the
    dispatcher.  Flushing a batch consumes one credit per record; the
    checking node grants credits back as it processes each
    :class:`~repro.core.messages.PairBatch`
    (:class:`~repro.core.messages.CreditGrant`).  When credits run dry
    the dispatcher parks flushed batches, in order, in a deferred queue
    instead of releasing them — bounding the records in flight toward
    the trusted checking node.  The publication-close drain releases
    everything, so credit loss (a dropped grant, records rejected as
    malformed at a computing node) can defer work but never lose it.

``AdmissionController`` / ``SheddingPolicy``
    Bounded ingest queue with load shedding at the source.  When the
    dispatcher's backlog (in-flight batch plus credit-deferred records)
    exceeds ``config.ingest_queue_limit``, the policy either rejects
    the arriving record (``drop-newest``) or evicts the oldest
    not-yet-flushed record (``drop-oldest``), counting every shed.

The :class:`FlowController` bundles the two and participates in
``snapshot()``/``restore()`` so crash recovery restores the credit
window and its deferred batches too.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.core.messages import RawBatch
from repro.records.codec import decode_record, encode_record
from repro.telemetry.context import coalesce

#: Admission decisions (:meth:`AdmissionController.decide`).
ADMIT, SHED_NEWEST, SHED_OLDEST = "admit", "shed-newest", "shed-oldest"

DROP_NEWEST = "drop-newest"
DROP_OLDEST = "drop-oldest"


class SheddingPolicy:
    """What to shed, and when, at the ingest source.

    Parameters
    ----------
    queue_limit:
        Records the dispatcher may hold back before shedding; 0
        disables admission control entirely.
    mode:
        ``"drop-newest"`` rejects the arriving record; ``"drop-oldest"``
        evicts the oldest unflushed record to admit the new one.
    """

    def __init__(self, queue_limit: int = 0, mode: str = DROP_NEWEST):
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        if mode not in (DROP_NEWEST, DROP_OLDEST):
            raise ValueError(f"unknown shed mode {mode!r}")
        self.queue_limit = queue_limit
        self.mode = mode

    @property
    def enabled(self) -> bool:
        """Whether admission control is active at all."""
        return self.queue_limit > 0


class AdmissionController:
    """Bounded ingest queue: admit, or shed per the policy.

    The controller only *decides*; the dispatcher owns the backlog and
    performs the eviction, then reports it back via
    :meth:`record_shed` so the shed counters live in one place.
    """

    def __init__(self, policy: SheddingPolicy, telemetry=None):
        self.policy = policy
        self.admitted = 0
        self.shed = {DROP_NEWEST: 0, DROP_OLDEST: 0}
        tel = coalesce(telemetry)
        self._admitted_counter = tel.counter("dispatcher_admitted_total")
        self._shed_counters = {
            mode: tel.counter("dispatcher_shed_total", mode=mode)
            for mode in (DROP_NEWEST, DROP_OLDEST)
        }

    def decide(self, backlog: int) -> str:
        """``ADMIT``, ``SHED_NEWEST`` or ``SHED_OLDEST`` for one arrival."""
        if not self.policy.enabled or backlog < self.policy.queue_limit:
            self.admitted += 1
            self._admitted_counter.inc()
            return ADMIT
        if self.policy.mode == DROP_OLDEST:
            return SHED_OLDEST
        return SHED_NEWEST

    def record_shed(self, mode: str) -> None:
        """Count one shed record (called by the dispatcher post-eviction)."""
        self.shed[mode] += 1
        self._shed_counters[mode].inc()

    @property
    def shed_total(self) -> int:
        """Records shed under either mode since construction/restore."""
        return sum(self.shed.values())


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
    def deferred_records(self) -> int:
        """Records parked behind exhausted credits."""
        with self._lock:
            return sum(len(batch.items) for _, batch in self._deferred)

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
        batch (dropped inbox frames, torn rings), so the grant that
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


class FlowController:
    """The dispatcher's flow-control bundle (credits + shed)."""

    def __init__(self, config, telemetry=None):
        self.credits = CreditGate(config.credit_window, telemetry=telemetry)
        self.admission = AdmissionController(
            SheddingPolicy(config.ingest_queue_limit, config.shed_policy),
            telemetry=telemetry,
        )

    def snapshot(self) -> dict:
        """JSON-able flow state for the dispatcher's snapshot."""
        return {"credits": self.credits.snapshot()}

    def restore(self, state: dict | None) -> None:
        """Inverse of :meth:`snapshot`; ``None`` (pre-flow snapshot) resets
        nothing — construction defaults already match the config.  Keys
        other than ``"credits"`` (an older snapshot's ``"controller"``)
        are ignored."""
        if state is None:
            return
        self.credits.restore(state["credits"])
