"""The dispatcher (Section 5.3).

The only ingestion-path work left on this node is round-robin forwarding —
every heavy job (parsing, encrypting, checking) moved elsewhere, which is
what lets FRESQUE's intake scale.  At the start of each publishing time
interval the dispatcher creates the index template (noise plan), the dummy
records and the publication number; at the end it broadcasts *publishing*
and immediately opens the next publication (asynchronous publishing).

Forwarding is batched (docs/BATCHING.md): arriving records — raw lines
and released dummies alike, a dummy as nothing but its indexed value
(the computing node renders the rest from the schema) — arrive as
*runs* (:meth:`Dispatcher.on_run`; a line or a release is a run of one)
and accumulate, in order, in a single in-flight batch.  A run is cut
by slicing into :class:`~repro.core.messages.RawBatch`es, each flushed
to the next computing node when it reaches ``config.batch_size``
(*size*); what stays in flight is flushed when it has waited longer
than ``config.max_batch_delay`` (*delay*, checked once per run), or
when the publication interval closes (*close*) — the close flush is
what guarantees a batch never straddles a publication boundary.
``batch_size=1`` degenerates to per-record dispatch through the exact
same path.  As in the paper the dispatcher has no flow control: a
flushed batch leaves at once (on TCP, the bounded computing-node links
can hold its send, docs/RUNTIMES.md).  It is retained until the
checking node admits it, for a crash re-send (upstream backup,
docs/PROTOCOL.md).  An admission is only recorded where it arrives —
on TCP, a node thread, while the driver holds the dispatcher — and
applied by whatever next reads or changes the retained batches.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_left
from collections import deque
from operator import itemgetter

from repro.core.config import FresqueConfig
from repro.core.messages import (
    Admitted,
    NewPublication,
    NodeDown,
    PublishingMsg,
    RawBatch,
    Routed,
)
from repro.index.perturb import NoisePlan, draw_noise_plan
from repro.index.tree import IndexTree
from repro.records.codec import floats_from_bytes, floats_to_bytes
from repro.telemetry.clock import WALL_CLOCK
from repro.telemetry.context import coalesce

__all__ = [
    "Dispatcher",
    "FLUSH_SIZE",
    "FLUSH_DELAY",
    "FLUSH_CLOSE",
    "FLUSH_MANUAL",
]

#: Flush triggers, as reported by the ``dispatcher_batch_flush_total``
#: counter's ``reason`` label.
FLUSH_SIZE, FLUSH_DELAY, FLUSH_CLOSE, FLUSH_MANUAL = (
    "size",
    "delay",
    "close",
    "manual",
)


class Dispatcher(Routed):
    """Round-robin record distribution plus publication lifecycle.

    The collector driver calls these methods directly; the only message
    routed to the dispatcher is the checking node's :class:`Admitted`.

    Parameters
    ----------
    config:
        The deployment configuration.
    rng:
        Seeded randomness (noise plans, dummy values, dummy schedule).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; opens the
        per-publication root span and times the ``dispatch`` stage.
    clock:
        Time source for the ``max_batch_delay`` flush; defaults to the
        telemetry clock when telemetry is enabled, else the shared wall
        clock.  Tests inject a
        :class:`~repro.telemetry.clock.SimulatedClock` so delay flushes
        fire without sleeping.
    """

    ROUTES = {Admitted: "on_admitted"}

    def __init__(
        self,
        config: FresqueConfig,
        rng: random.Random | None = None,
        telemetry=None,
        clock=None,
    ):
        self.config = config
        self._rng = rng if rng is not None else random.Random()
        self._tree_shape = IndexTree(config.domain, fanout=config.fanout)
        #: Per leaf, ``(low, width)``: where its dummies' values are drawn.
        self._leaf_bounds = config.domain.leaf_spans()
        self._publication = -1
        #: Computing nodes reported down; the set only grows, since a
        #: crashed node never comes back (docs/PROTOCOL.md).
        self._dead: set[int] = set()
        # Round-robin cursor over node ids; a down id is skipped
        # without being handed a batch.
        self._next_cn = 0
        # (release fraction, indexed value) per dummy, by fraction.  A
        # deque: due_dummies pops from the front as the interval
        # advances, and list.pop(0) would shift the whole schedule per
        # dummy (O(n²) across one publication).
        self._dummy_schedule: deque[tuple[float, float]] = deque()
        self.records_dispatched = 0
        self.records_rerouted = 0
        self.dummies_generated = 0
        self._tel = coalesce(telemetry)
        self._records_counter = self._tel.counter("dispatcher_records_total")
        self._dummies_counter = self._tel.counter("dispatcher_dummies_total")
        if clock is None:
            clock = self._tel.clock if self._tel.enabled else WALL_CLOCK
        self._clock = clock
        #: Flush triggers, read on every enqueue.
        self.batch_size = config.batch_size
        self.max_batch_delay = config.max_batch_delay
        #: The in-flight batch: raw lines and dummy values, arrival order.
        self._batch: list[str | float] = []
        self._batch_opened: float | None = None
        # Global flush sequence (next RawBatch.seq) and the dispatch
        # ordinal of the in-flight batch's first item; both are stamped
        # onto RawBatch so the checking node can re-serialise batches
        # and deterministic IVs can key off them.
        self._seq = 0
        self._batch_ordinal = 0
        #: seq → (destination, batch) of every shipped batch the checking
        #: node has not admitted yet, in seq order.
        self._unadmitted: dict[int, tuple[str, RawBatch]] = {}
        #: Seqs admitted and not yet dropped from ``_unadmitted``:
        #: :meth:`on_admitted` only appends (a ``deque`` append needs no
        #: lock); whatever reads or changes the retained batches drops
        #: them first (:meth:`_drop_admitted`), under ``_retained`` — a
        #: lock held for that alone, never across a dispatch.
        self._admitted: deque[int] = deque()
        self._retained = threading.Lock()
        self._batch_histogram = self._tel.histogram(
            "dispatcher_batch_records",
            buckets=(
                1.0,
                2.0,
                4.0,
                8.0,
                16.0,
                32.0,
                64.0,
                128.0,
                256.0,
                512.0,
                1024.0,
                2048.0,
            ),
        )
        self._flush_counters = {
            reason: self._tel.counter(
                "dispatcher_batch_flush_total", reason=reason
            )
            for reason in (FLUSH_SIZE, FLUSH_DELAY, FLUSH_CLOSE, FLUSH_MANUAL)
        }

    @property
    def publication(self) -> int:
        """Current publication number (-1 before the first interval)."""
        return self._publication

    @property
    def num_computing_nodes(self) -> int:
        """Workers records are spread over."""
        return self.config.num_computing_nodes

    def _dummy_values(self, plan) -> list[float]:
        """One indexed value per dummy the plan's positive leaf noise
        asks for, leaf by leaf: uniform over the leaf's interval."""
        draw = self._rng.random
        values: list[float] = []
        for (low, span), noise in zip(self._leaf_bounds, plan.leaf_noise):
            if noise <= 0:
                continue
            if span <= 0:
                values += [low] * noise
            else:
                values += [low + draw() * span for _ in range(noise)]
        return values

    def start_publication(
        self, plan: NoisePlan | None = None
    ) -> list[tuple[str, object]]:
        """Open a new publication: draw the template, schedule the dummies.

        Dummy records are assigned release times *uniformly at random* over
        the interval (Section 5.2) — exposed as fractions in [0, 1) so the
        driver can map them to wall-clock or record-count positions.

        ``plan`` injects a pre-drawn noise plan instead of drawing one
        here — the durable driver journals the plan before opening the
        publication, and crash recovery replays the journaled plan so the
        rebuilt publication spends the exact ε (and schedules the exact
        dummy counts) of the original.
        """
        self._publication += 1
        self._tel.open_publication(self._publication)
        if plan is None:
            # Non-durable fallback: the durable driver injects a granted,
            # journaled plan (durability/system.py); this in-memory path
            # spends config epsilon without a ledger by design.
            plan = draw_noise_plan(
                self._tree_shape, self.config.epsilon, rng=self._rng
            )
        values = self._dummy_values(plan)
        self.dummies_generated += len(values)
        self._dummies_counter.inc(len(values))
        draw = self._rng.random
        fractions = [draw() for _ in values]
        self._dummy_schedule = deque(
            sorted(zip(fractions, values), key=itemgetter(0))
        )
        return [("checking", NewPublication(self._publication, plan))]

    def due_dummies(self, fraction: float) -> list[tuple[str, object]]:
        """Release every dummy scheduled before ``fraction`` of the interval.

        Dummies join the same in-flight batch as raw lines (the randomer's
        mixing guarantee needs them interleaved in arrival order), so the
        returned messages are whatever batch flushes the releases trigger.
        """
        schedule = self._dummy_schedule
        if not schedule or schedule[0][0] > fraction:
            return []
        released = []
        while schedule and schedule[0][0] <= fraction:
            released.append(schedule.popleft()[1])
        return self._cut(released)

    @property
    def pending_dummies(self) -> int:
        """Dummies not yet released into the stream."""
        return len(self._dummy_schedule)

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Computing nodes reported down (skipped by the round robin)."""
        return frozenset(self._dead)

    @property
    def live_computing_nodes(self) -> list[int]:
        """Computing nodes still in the rotation."""
        return [
            i for i in range(self.num_computing_nodes) if i not in self._dead
        ]

    def mark_node_down(self, node_id: int) -> list[tuple[str, object]]:
        """Take a crashed computing node out of the rotation.

        Degraded mode: shared-nothing means the surviving nodes can
        absorb the dead node's share of the stream.  Returns the
        :class:`NodeDown` notice for the checking node so publication
        finalisation stops waiting for the dead node (idempotent).  A
        crash that would leave no node alive is refused.
        """
        if not 0 <= node_id < self.num_computing_nodes:
            raise ValueError(f"unknown computing node {node_id}")
        if node_id in self._dead:
            return []
        if len(self._dead) + 1 >= self.num_computing_nodes:
            raise RuntimeError("every computing node is down")
        self._dead.add(node_id)
        return [("checking", NodeDown(self._publication, node_id))]

    def resend(self, node_id: int) -> list[RawBatch]:
        """The batches shipped to ``node_id`` and not yet admitted, in
        seq order: what its crash may have lost, for :meth:`redispatch`."""
        destination = f"cn-{node_id}"
        with self._retained:
            self._drop_admitted()
            return [
                batch
                for sent_to, batch in self._unadmitted.values()
                if sent_to == destination
            ]

    def redispatch(self, message: RawBatch) -> list[tuple[str, object]]:
        """Re-route a batch whose computing node died, retaining it under
        its new destination until it is admitted.

        The message object is forwarded unchanged — its seq/ordinal
        stamps must survive the reroute (the checking node dedups by
        seq, deterministic IVs key off the ordinal).  A stamped batch
        admitted since :meth:`resend` listed it reached the checking
        node after all: nothing is re-sent.
        """
        with self._retained:
            self._drop_admitted()
            if message.seq >= 0 and message.seq not in self._unadmitted:
                return []
            destination = self._next_node()
            self._unadmitted[message.seq] = (destination, message)
        self.records_rerouted += len(message.items)
        return [(destination, message)]

    def on_admitted(self, message: Admitted) -> list[tuple[str, object]]:
        """The checking node admitted batch ``seq``: record it, so the
        batch is no longer retained once the admission is applied.
        Safe to call from any thread while the driver dispatches."""
        self._admitted.append(message.seq)
        return []

    def _drop_admitted(self) -> None:
        """Stop retaining every batch admitted so far (``_retained``
        held)."""
        admitted, unadmitted = self._admitted, self._unadmitted
        while admitted:
            unadmitted.pop(admitted.popleft(), None)

    @property
    def oldest_unadmitted(self) -> int | None:
        """The lowest seq still retained (``None``: all admitted)."""
        with self._retained:
            self._drop_admitted()
            return next(iter(self._unadmitted), None)

    def _next_node(self) -> str:
        """The next live computing node's address, round robin."""
        count = self.num_computing_nodes
        for _ in range(count):
            node_id = self._next_cn
            self._next_cn = (node_id + 1) % count
            if node_id not in self._dead:
                return f"cn-{node_id}"
        raise RuntimeError("every computing node is down")

    def on_raw(self, line: str) -> list[tuple[str, object]]:
        """Accumulate one raw line; forward a batch when a flush triggers
        (a run of one, :meth:`on_run`)."""
        return self._cut((line,))

    def on_run(self, lines, fractions=None) -> list[tuple[str, object]]:
        """Dispatch a run of raw lines, with the dummies due among them.

        ``fractions`` (one per line, non-decreasing) are the lines'
        interval positions.  Before each line the dummies it makes due
        join the run — the ``schedule[0][0] <= fraction`` rule of
        :meth:`due_dummies`, found by bisecting ``fractions`` once per
        dummy — so any cut of a stream into runs yields the batches that
        a per-line ``due_dummies(fraction)`` + ``on_raw(line)`` loop
        does.  Without ``fractions`` no dummy is released.
        """
        schedule = self._dummy_schedule
        if not fractions or not schedule:
            return self._cut(lines)
        items: list[str | float] = []
        taken, count = 0, len(lines)
        while schedule:
            due = bisect_left(fractions, schedule[0][0], taken, count)
            if due == count:
                break
            items += lines[taken:due]
            items.append(schedule.popleft()[1])
            taken = due
        items += lines[taken:]
        return self._cut(items)

    def _cut(self, items) -> list[tuple[str, object]]:
        """Append ``items`` to the in-flight batch and cut every batch
        they fill, by slicing; the delay flush is checked once, for
        whatever stays in flight (a run arrives at one instant)."""
        count = len(items)
        if not count:
            return []
        batch = self._batch
        if not batch:
            self._batch_ordinal = self.records_dispatched
        self.records_dispatched += count
        self._records_counter.inc(count)
        size = self.batch_size
        room = size - len(batch)
        if count < room:
            batch += items
        else:
            # An over-full batch (the size lowered under it) flushes
            # with the next item, as it did one item at a time.
            room = max(room, 1)
            batch += items[:room]
            out = self._flush(FLUSH_SIZE)
            if room == count:
                return out
            ordinal = self.records_dispatched - count + room
            end = room + (count - room) // size * size
            for start in range(room, end, size):
                out.append(self._ship(items[start : start + size], ordinal))
                self._flush_counters[FLUSH_SIZE].inc()
                ordinal += size
            self._batch = list(items[end:])
            self._batch_ordinal = ordinal
            if end < count:
                self._batch_opened = self._clock.now()
            return out
        now = self._clock.now()
        if self._batch_opened is None:
            self._batch_opened = now
            return []
        if now - self._batch_opened >= self.max_batch_delay:
            return self._flush(FLUSH_DELAY)
        return []

    def _ship(self, items, ordinal: int) -> tuple[str, RawBatch]:
        """One cut batch, sequenced and routed (round robin)."""
        start = self._tel.now()
        seq = self._seq
        self._seq += 1
        message = RawBatch(
            self._publication, tuple(items), seq=seq, ordinal=ordinal
        )
        self._batch_histogram.observe(float(len(items)))
        self._tel.observe_stage("dispatch", self._publication, start)
        return self._route(message)

    def _route(self, message: RawBatch) -> tuple[str, RawBatch]:
        """Route ``message`` round robin, retaining it until admitted."""
        destination = self._next_node()
        with self._retained:
            self._drop_admitted()
            self._unadmitted[message.seq] = (destination, message)
        return destination, message

    def _flush(self, reason: str) -> list[tuple[str, object]]:
        """Ship the in-flight batch; no-op when empty."""
        if not self._batch:
            return []
        items = self._batch
        self._batch = []
        self._batch_opened = None
        self._flush_counters[reason].inc()
        return [self._ship(items, self._batch_ordinal)]

    def flush_batch(
        self, reason: str = FLUSH_MANUAL
    ) -> list[tuple[str, object]]:
        """Flush the in-flight batch now (driver-initiated)."""
        return self._flush(reason)

    def flush_due(self, now: float | None = None) -> list[tuple[str, object]]:
        """Flush iff the in-flight batch outlived ``max_batch_delay``.

        Called periodically — the TCP cluster runs a
        :class:`~repro.runtime.poller.FlushPoller` thread, and
        :meth:`FresqueSystem.poll_flush` delegates here — so
        a trickle of records below the batch size never waits longer
        than the configured delay for its flush.
        """
        if not self._batch:
            return []
        if now is None:
            now = self._clock.now()
        if self._batch_opened is None:
            self._batch_opened = now
            return []
        if now - self._batch_opened >= self.max_batch_delay:
            return self._flush(FLUSH_DELAY)
        return []

    @property
    def pending_batch_records(self) -> int:
        """Records accumulated but not yet flushed to a computing node."""
        return len(self._batch)

    def snapshot(self) -> dict:
        """Snapshot of the dispatcher's durable state.

        Captures everything replay cannot re-derive: the publication
        counter, the dead set and the round-robin cursor, the
        not-yet-released dummy schedule, the in-flight batch and the
        ingest counters.  The schedule is two packed ``float64`` columns
        (checkpoint sections): release fractions and the dummies'
        indexed values.  The in-flight batch is a JSON list whose
        strings are raw lines and whose numbers are dummy values.
        """
        schedule = self._dummy_schedule
        return {
            "publication": self._publication,
            "dead": sorted(self._dead),
            "cursor": self._next_cn,
            "dummy_fractions": floats_to_bytes(
                [fraction for fraction, _ in schedule]
            ),
            "dummy_values": floats_to_bytes([value for _, value in schedule]),
            "batch": list(self._batch),
            "records_dispatched": self.records_dispatched,
            "records_rerouted": self.records_rerouted,
            "dummies_generated": self.dummies_generated,
            "seq": self._seq,
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (crash recovery)."""
        self._publication = state["publication"]
        self._dead = set(state["dead"])
        self._next_cn = state["cursor"]
        fractions = floats_from_bytes(state["dummy_fractions"])
        values = floats_from_bytes(state["dummy_values"])
        if len(fractions) != len(values):
            raise ValueError("dummy schedule columns differ in length")
        self._dummy_schedule = deque(zip(fractions, values))
        self._batch = list(state["batch"])
        # Absolute flush deadlines do not survive a restart; the restored
        # batch's delay window re-arms from the next enqueue or poll.
        self._batch_opened = None
        self.records_dispatched = state["records_dispatched"]
        self.records_rerouted = state["records_rerouted"]
        self.dummies_generated = state["dummies_generated"]
        self._seq = state["seq"]
        # records_dispatched already counts the restored in-flight batch,
        # so its first item's ordinal is derivable.
        self._batch_ordinal = self.records_dispatched - len(self._batch)

    def end_publication(self) -> list[tuple[str, object]]:
        """Broadcast *publishing*; the caller immediately starts the next.

        Any dummies still scheduled are released first, then the in-flight
        batch is flushed (the *close* flush) — both strictly before the
        *publishing* broadcast, so the checking node sees the complete
        publication and no record crosses into the next one.
        """
        out = self.due_dummies(1.0)
        out.extend(self._flush(FLUSH_CLOSE))
        message = PublishingMsg(self._publication, last_seq=self._seq - 1)
        out.extend((f"cn-{i}", message) for i in self.live_computing_nodes)
        out.append(("checking", message))
        return out
