"""The dispatcher (Section 5.3).

The only ingestion-path work left on this node is round-robin forwarding —
every heavy job (parsing, encrypting, checking) moved elsewhere, which is
what lets FRESQUE's intake scale.  At the start of each publishing time
interval the dispatcher creates the index template (noise plan), the dummy
records and the publication number; at the end it broadcasts *publishing*
and immediately opens the next publication (asynchronous publishing).

Forwarding is batched (docs/BATCHING.md): arriving records — raw lines
and released dummies alike — accumulate, in order, in a single in-flight
batch that is flushed to the next computing node as one
:class:`~repro.core.messages.RawBatch` when it reaches the effective
batch size (*size*), when it has waited longer than the effective flush
delay (*delay*), or when the publication interval closes (*close*) — the
close flush is what guarantees a batch never straddles a publication
boundary.  ``batch_size=1`` degenerates to per-record dispatch through
the exact same path.  The effective size/delay come from the
:class:`~repro.core.flow.FlowController` — the static config values when
pinned, the AIMD controller's when ``config.adaptive_batching`` is on —
which also houses credit-based backpressure (flushed batches park in a
deferred queue when the checking node's credits run dry) and admission
control (``config.ingest_queue_limit`` + :meth:`Dispatcher.offer_raw`).
"""

from __future__ import annotations

import random
from collections import deque

from repro.core.config import FresqueConfig
from repro.core.flow import (
    ADMIT,
    DROP_NEWEST,
    DROP_OLDEST,
    FLUSH_CLOSE,
    FLUSH_DELAY,
    FLUSH_MANUAL,
    FLUSH_SIZE,
    FlowController,
    SHED_OLDEST,
)
from repro.core.membership import Membership
from repro.core.messages import (
    CreditGrant,
    MembershipMsg,
    NewPublication,
    NodeDown,
    PublishingMsg,
    RawBatch,
    Routed,
)
from repro.index.perturb import NoisePlan, draw_noise_plan
from repro.index.tree import IndexTree
from repro.records.record import Record, make_dummy
from repro.records.codec import decode_record, encode_record
from repro.telemetry.clock import WALL_CLOCK
from repro.telemetry.context import coalesce

# FLUSH_* reason labels are defined in repro.core.flow (the controller
# consumes them too) and re-exported here for their historical home.
__all__ = [
    "Dispatcher",
    "FLUSH_SIZE",
    "FLUSH_DELAY",
    "FLUSH_CLOSE",
    "FLUSH_MANUAL",
]


class Dispatcher(Routed):
    """Round-robin record distribution plus publication lifecycle.

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

    ROUTES = {CreditGrant: "on_credit"}

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
        self._publication = -1
        #: Versioned node set + round-robin cursor (docs/PROTOCOL.md);
        #: every membership transition bumps its epoch, and every
        #: RawBatch is stamped with the epoch it was dispatched under.
        self.membership = Membership(config.num_computing_nodes)
        #: Nodes that participated in the current interval (received or
        #: could have received batches): the *publishing* broadcast set.
        #: Retirement keeps a node here — it must still report — while
        #: nodes down at close are excluded at broadcast time.
        self._participants: set[int] = set(self.membership.active_ids)
        # A deque: due_dummies pops from the front as the interval
        # advances, and list.pop(0) would shift the whole schedule per
        # dummy (O(n²) across one publication).
        self._dummy_schedule: deque[tuple[float, Record]] = deque()
        self.records_dispatched = 0
        self.records_rerouted = 0
        self.dummies_generated = 0
        self._tel = coalesce(telemetry)
        self._records_counter = self._tel.counter("dispatcher_records_total")
        self._dummies_counter = self._tel.counter("dispatcher_dummies_total")
        if clock is None:
            clock = self._tel.clock if self._tel.enabled else WALL_CLOCK
        self._clock = clock
        #: Flow control: effective batch size/delay (pinned or adaptive),
        #: the credit gate and admission control (repro.core.flow).
        self.flow = FlowController(config, telemetry=telemetry, clock=clock)
        #: The in-flight batch: raw lines and dummy Records, arrival order.
        self._batch: list[str | Record] = []
        self._batch_opened: float | None = None
        # Global flush sequence (next RawBatch.seq) and the dispatch
        # ordinal of the in-flight batch's first item; both are stamped
        # onto RawBatch so order-restoring transports (runtime/shm) can
        # re-serialise batches and key deterministic IVs.
        self._seq = 0
        self._batch_ordinal = 0
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

    def _make_dummies(self, plan) -> list[Record]:
        dummies = []
        for offset, noise in enumerate(plan.leaf_noise):
            if noise <= 0:
                continue
            low, high = self.config.domain.leaf_range(offset)
            for _ in range(noise):
                value = low if high <= low else low + self._rng.random() * (
                    high - low
                )
                dummies.append(make_dummy(self.config.schema, value))
        return dummies

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
        self._participants = set(self.membership.active_ids)
        self._tel.open_publication(self._publication)
        if plan is None:
            # Non-durable fallback: the durable driver injects a granted,
            # journaled plan (durability/system.py); this in-memory path
            # spends config epsilon without a ledger by design.
            plan = draw_noise_plan(
                self._tree_shape, self.config.epsilon, rng=self._rng
            )
        dummies = self._make_dummies(plan)
        self.dummies_generated += len(dummies)
        self._dummies_counter.inc(len(dummies))
        self._dummy_schedule = deque(
            sorted(
                ((self._rng.random(), dummy) for dummy in dummies),
                key=lambda item: item[0],
            )
        )
        return [("checking", NewPublication(self._publication, plan))]

    def due_dummies(self, fraction: float) -> list[tuple[str, object]]:
        """Release every dummy scheduled before ``fraction`` of the interval.

        Dummies join the same in-flight batch as raw lines (the randomer's
        mixing guarantee needs them interleaved in arrival order), so the
        returned messages are whatever batch flushes the releases trigger.
        """
        out: list[tuple[str, object]] = []
        while self._dummy_schedule and self._dummy_schedule[0][0] <= fraction:
            _, dummy = self._dummy_schedule.popleft()
            out.extend(self._enqueue(dummy))
        return out

    @property
    def pending_dummies(self) -> int:
        """Dummies not yet released into the stream."""
        return len(self._dummy_schedule)

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Computing nodes reported down (skipped by the round robin)."""
        return frozenset(self.membership.down_ids)

    @property
    def live_computing_nodes(self) -> list[int]:
        """Computing nodes still in the rotation."""
        return self.membership.active_ids

    @property
    def epoch(self) -> int:
        """Current membership epoch (stamped onto every RawBatch)."""
        return self.membership.epoch

    def mark_node_down(self, node_id: int) -> list[tuple[str, object]]:
        """Take a crashed computing node out of the rotation.

        Degraded mode: shared-nothing means the surviving nodes can
        absorb the dead node's share of the stream.  Returns the
        :class:`NodeDown` notice for the checking node so publication
        finalisation stops waiting for the dead node (idempotent).
        """
        if self.membership.state_of(node_id) == "down":
            return []
        self.membership.mark_down(node_id)
        return [("checking", NodeDown(self._publication, node_id))]

    def admit_node(
        self, node_id: int | None = None
    ) -> tuple[int, list[tuple[str, object]]]:
        """Admit a computing node into the fleet at runtime.

        Returns ``(node_id, outbox)``.  The in-flight batch flushes
        first, stamped and routed under the *old* epoch — admission
        never perturbs batches already sequenced — then the rotation is
        rebuilt around the grown fleet and the credit window reopens
        (deferred batches release; they too keep their old stamps and
        addresses).  The checking node learns the new fleet from the
        :class:`MembershipMsg`.
        """
        out = self._flush(FLUSH_MANUAL)
        node_id = self.membership.admit(node_id)
        self._participants.add(node_id)
        out.extend(self.flow.credits.drain())
        out.append(("checking", self._membership_msg()))
        return node_id, out

    def retire_node(self, node_id: int) -> list[tuple[str, object]]:
        """Drain a computing node out of the rotation (planned removal).

        The in-flight batch flushes under the old epoch (if it was
        routed to the retiring node it still goes there — drain, not
        drop), then the node leaves the rotation.  Its share of the
        dummy schedule needs no reassignment: dummies are scheduled
        centrally and routed at release time, so the survivors absorb
        them through the ordinary rotation.  The retired node stays
        reachable until the interval closes — it reports *publishing*
        for the records it processed and receives its final *done*.
        """
        out = self._flush(FLUSH_MANUAL)
        self.membership.retire(node_id)
        out.append(("checking", self._membership_msg()))
        return out

    def rejoin_node(self, node_id: int) -> list[tuple[str, object]]:
        """A crashed node returns to the rotation under a fresh epoch.

        The new join epoch is the staleness floor the checking side
        uses to discard the previous incarnation's late pair batches
        (the crash redispatch already re-covered them).
        """
        out = self._flush(FLUSH_MANUAL)
        self.membership.rejoin(node_id)
        self._participants.add(node_id)
        out.append(("checking", self._membership_msg()))
        return out

    def _membership_msg(self) -> MembershipMsg:
        m = self.membership
        return MembershipMsg(
            epoch=m.epoch,
            members=tuple(m.active_ids),
            retired=tuple(m.retired_ids),
            down=tuple(m.down_ids),
            joined=tuple(sorted(m.join_epochs.items())),
        )

    def redispatch(self, message: RawBatch) -> list[tuple[str, object]]:
        """Re-route a batch whose computing node died before reading it.

        The message object is forwarded unchanged — its seq/ordinal/
        epoch stamps must survive the reroute (the ordering gate dedups
        by seq, deterministic IVs key off the ordinal).  The dead node's
        credits are refunded (its batches may never reach the checking
        node to be granted back), which can release deferred batches —
        they follow the rerouted one in the returned outbox.
        """
        self.records_rerouted += len(message.items)
        released = self.flow.credits.refund(len(message.items))
        out = [(self._next_node(), message)]
        out.extend(released)
        return out

    def _next_node(self) -> str:
        return self.membership.next_destination()

    def on_raw(self, line: str) -> list[tuple[str, object]]:
        """Accumulate one raw line; forward a batch when a flush triggers."""
        return self._enqueue(line)

    def admit(self) -> bool:
        """Admission decision for one arriving record; ``False`` = shed.

        With ``config.ingest_queue_limit`` unset every record is
        admitted.  Over the limit, ``drop-newest`` rejects the arrival
        while ``drop-oldest`` evicts the oldest unflushed record to make
        room — falling back to rejection when nothing is evictable (the
        whole backlog is already flushed and credit-deferred).
        """
        decision = self.flow.admission.decide(self.backlog_records)
        if decision is ADMIT:
            return True
        if decision == SHED_OLDEST and self._evict_oldest():
            self.flow.admission.record_shed(DROP_OLDEST)
            return True
        self.flow.admission.record_shed(DROP_NEWEST)
        return False

    def offer_raw(self, line: str) -> list[tuple[str, object]] | None:
        """Admission-controlled :meth:`on_raw`: ``None`` means shed."""
        return self._enqueue(line) if self.admit() else None

    def _evict_oldest(self) -> bool:
        """Drop the in-flight batch's oldest record; False when empty."""
        if not self._batch:
            return False
        self._batch.pop(0)
        # The evicted record keeps its dispatch ordinal (it was counted);
        # the batch's first item is now one ordinal later, preserving the
        # restore invariant ordinal == records_dispatched - len(batch).
        self._batch_ordinal += 1
        if not self._batch:
            self._batch_opened = None
        return True

    @property
    def backlog_records(self) -> int:
        """Records held back: in-flight batch plus credit-deferred."""
        return len(self._batch) + self.flow.credits.deferred_records

    def on_credit(self, message: CreditGrant) -> list[tuple[str, object]]:
        """Apply a checking-node credit grant; release deferred batches."""
        return list(self.flow.credits.grant(message.records))

    def observe_queue_depth(self, depth: int) -> None:
        """Feed a downstream queue-depth sample to the adaptive controller."""
        self.flow.controller.observe_depth(depth)

    def _enqueue(self, item: str | Record) -> list[tuple[str, object]]:
        """Append one item to the in-flight batch; flush if due."""
        batch = self._batch
        if not batch:
            self._batch_ordinal = self.records_dispatched
        batch.append(item)
        self.records_dispatched += 1
        self._records_counter.inc()
        if len(batch) >= self.flow.batch_size:
            return self._flush(FLUSH_SIZE)
        now = self._clock.now()
        if self._batch_opened is None:
            self._batch_opened = now
            return []
        if now - self._batch_opened >= self.flow.max_batch_delay:
            return self._flush(FLUSH_DELAY)
        return []

    def _flush(self, reason: str) -> list[tuple[str, object]]:
        """Ship the in-flight batch as one RawBatch; no-op when empty.

        The batch is routed (round robin) and sequenced unconditionally;
        the credit gate then decides whether it leaves now or waits,
        already addressed, in the deferred queue until the checking node
        grants credits back (an empty return with a non-empty deferred
        queue, not a dropped batch).
        """
        if not self._batch:
            return []
        start = self._tel.now()
        items = tuple(self._batch)
        self._batch = []
        self._batch_opened = None
        seq = self._seq
        self._seq += 1
        destination = self._next_node()
        message = RawBatch(
            self._publication,
            items,
            seq=seq,
            ordinal=self._batch_ordinal,
            epoch=self.membership.epoch,
        )
        self._flush_counters[reason].inc()
        self._batch_histogram.observe(float(len(items)))
        self.flow.controller.observe_flush(reason, len(items))
        self._tel.observe_stage("dispatch", self._publication, start)
        if not self.flow.credits.try_send(destination, message):
            return []
        return [(destination, message)]

    def flush_batch(
        self, reason: str = FLUSH_MANUAL
    ) -> list[tuple[str, object]]:
        """Flush the in-flight batch now (driver-initiated)."""
        return self._flush(reason)

    def flush_due(self, now: float | None = None) -> list[tuple[str, object]]:
        """Flush iff the in-flight batch outlived the effective delay.

        Called periodically by every runtime's flush poller — the
        threaded/TCP/shm clusters run a
        :class:`~repro.runtime.poller.FlushPoller` thread, and the
        synchronous :meth:`FresqueSystem.poll_flush` delegates here — so
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
        if now - self._batch_opened >= self.flow.max_batch_delay:
            return self._flush(FLUSH_DELAY)
        return []

    @property
    def batch_size(self) -> int:
        """Effective batch size (static, or the adaptive controller's)."""
        return self.flow.batch_size

    @property
    def max_batch_delay(self) -> float:
        """Effective flush-delay bound."""
        return self.flow.max_batch_delay

    @property
    def pending_batch_records(self) -> int:
        """Records accumulated but not yet flushed to a computing node."""
        return len(self._batch)

    def snapshot(self) -> dict:
        """JSON-able snapshot of the dispatcher's durable state.

        Captures everything replay cannot re-derive: the publication
        counter, the membership (round-robin cursor and dead set
        included), the not-yet-released dummy schedule and the ingest
        counters.
        """
        return {
            "publication": self._publication,
            "membership": self.membership.snapshot(),
            "participants": sorted(self._participants),
            "dummy_schedule": [
                [fraction, encode_record(dummy)]
                for fraction, dummy in self._dummy_schedule
            ],
            "batch": [
                ["line", item]
                if isinstance(item, str)
                else ["record", encode_record(item)]
                for item in self._batch
            ],
            "records_dispatched": self.records_dispatched,
            "records_rerouted": self.records_rerouted,
            "dummies_generated": self.dummies_generated,
            "seq": self._seq,
            "flow": self.flow.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (crash recovery)."""
        self._publication = state["publication"]
        self.membership = Membership(self.config.num_computing_nodes)
        self.membership.restore(state["membership"])
        self._participants = set(
            state.get("participants", self.membership.active_ids)
        )
        self._dummy_schedule = deque(
            (fraction, decode_record(payload))
            for fraction, payload in state["dummy_schedule"]
        )
        self._batch = [
            payload if kind == "line" else decode_record(payload)
            for kind, payload in state.get("batch", [])
        ]
        # Absolute flush deadlines do not survive a restart; the restored
        # batch's delay window re-arms from the next enqueue or poll.
        self._batch_opened = None
        self.records_dispatched = state["records_dispatched"]
        self.records_rerouted = state["records_rerouted"]
        self.dummies_generated = state["dummies_generated"]
        self._seq = state.get("seq", 0)
        # records_dispatched already counts the restored in-flight batch,
        # so its first item's ordinal is derivable.
        self._batch_ordinal = self.records_dispatched - len(self._batch)
        # Pre-flow snapshots carry no "flow" key; construction defaults
        # already match the config in that case.
        self.flow.restore(state.get("flow"))

    def end_publication(self) -> list[tuple[str, object]]:
        """Broadcast *publishing*; the caller immediately starts the next.

        Any dummies still scheduled are released first, then the in-flight
        batch is flushed (the *close* flush) — both strictly before the
        *publishing* broadcast, so the checking node sees the complete
        publication and no record crosses into the next one.
        """
        out = self.due_dummies(1.0)
        out.extend(self._flush(FLUSH_CLOSE))
        # Credits or not, the complete publication must reach the
        # computing nodes before the broadcast: release every deferred
        # batch and reset the credit window at the boundary.
        out.extend(self.flow.credits.drain())
        down = set(self.membership.down_ids)
        nodes = tuple(
            i for i in sorted(self._participants) if i not in down
        )
        message = PublishingMsg(
            self._publication,
            last_seq=self._seq - 1,
            epoch=self.membership.epoch,
            nodes=nodes,
        )
        out.extend((f"cn-{i}", message) for i in nodes)
        out.append(("checking", message))
        return out
