"""Order-restoring gate in front of the checking node.

Computing nodes run in parallel, so their :class:`PairBatch` streams
interleave arbitrarily on the way to the checking node.  The gate
re-serialises them by the dispatcher's global batch sequence number and
holds *publishing* / *CN-publishing* control messages until their gates
clear — after which the checking node observes exactly the synchronous
runtime's delivery order (the byte-identity property the equivalence
harness pins).  The threaded and TCP runtimes both wrap their checking
handler in one of these when deterministic IVs are on.

Under elastic membership (docs/PROTOCOL.md) the gate is also the
staleness authority: it tracks per-node join-epoch floors from
:class:`MembershipMsg` and discards batches stamped by a crashed
incarnation *before* the duplicate check, so a crash-redispatch twin is
never mistaken for a duplicate of its stale sibling.  Because the gate
guarantees exactly-once delivery per sequence number, it forwards
membership snapshots with the ``joined`` floors stripped — a batch the
gate has admitted must not be second-guessed by the checking node's own
floor after a later rejoin raises it.
"""

from __future__ import annotations

from collections import deque

from repro.core.membership import stale_for
from repro.core.messages import (
    CnPublishing,
    MembershipMsg,
    NewPublication,
    NodeDown,
    PairBatch,
    PublishingMsg,
)


class CheckingGate:
    """Order-restoring front of the checking node.

    Four rules, applied before any message reaches the wrapped
    handler:

    1. **PairBatch reorder**: batches are delivered strictly in the
       dispatcher's global ``seq`` order.  A batch stamped below its
       producer's join-epoch floor is a stale leftover of a crashed
       incarnation and is dropped (counted in :attr:`stale_discards`);
       a batch with ``seq`` below the next expected — or equal to one
       already buffered — is a crash-redispatch duplicate and is
       dropped (counted in :attr:`duplicates`).
    2. **Publishing gate**: a :class:`PublishingMsg` waits until every
       batch with ``seq <= last_seq`` has been delivered.
    3. **CnPublishing gate**: a node's publishing acknowledgement waits
       until its publication's :class:`PublishingMsg` has been
       delivered (the synchronous broadcast order).
    4. **NewPublication gate**: the next publication's announcement
       waits until the previous one has *finalised* — its publishing
       broadcast delivered and every expected node's acknowledgement
       in.  Finalisation shuffles the randomer buffer (an RNG draw), so
       the next interval's eviction draws must not overtake it.

    :class:`NodeDown` and :class:`MembershipMsg` pass through
    immediately (matching the dispatcher, which emits them out of band)
    and relax the ack gate — a dead node's acknowledgement stops being
    waited for, per publication: a node that later *rejoins* stays
    absolved for publications whose interval its new incarnation never
    saw.
    """

    def __init__(self, handler, num_nodes: int):
        self._handler = handler
        self._num_nodes = num_nodes
        self.next_seq = 0
        self.duplicates = 0
        self.stale_discards = 0
        self._buffered: dict[int, PairBatch] = {}
        self._pending_publishing: deque[PublishingMsg] = deque()
        self._pending_cn: deque[CnPublishing] = deque()
        self._pending_new: deque[NewPublication] = deque()
        self._publishing_delivered: set[int] = set()
        # publication → nodes that acknowledged; the entry exists while
        # finalisation is outstanding (created at PublishingMsg delivery).
        self._acked: dict[int, set[int]] = {}
        # publication → expected report set (PublishingMsg.nodes); None
        # falls back to counting against ``num_nodes``.
        self._expected: dict[int, set[int] | None] = {}
        # publication → nodes absolved from acking it (down at its
        # PublishingMsg delivery, or died while it waited).  Monotone per
        # publication, unlike ``_dead``, which rejoins shrink.
        self._absolved: dict[int, set[int]] = {}
        self._dead: set[int] = set()
        # Per-node join-epoch floors (MembershipMsg.joined): batches
        # stamped below their producer's floor are stale.
        self._node_epochs: dict[int, int] = {}

    @property
    def pending(self) -> int:
        """Messages held back waiting for a gate."""
        return (
            len(self._buffered)
            + len(self._pending_publishing)
            + len(self._pending_cn)
            + len(self._pending_new)
        )

    def _stale(self, batch: PairBatch) -> bool:
        return stale_for(self._node_epochs, batch)

    def feed(self, message) -> list[tuple[str, object]]:
        """Admit one message; returns the outbox of everything released."""
        out: list[tuple[str, object]] = []
        if isinstance(message, PairBatch) and message.seq >= 0:
            if self._stale(message):
                self.stale_discards += 1
                return out
            if message.seq < self.next_seq or message.seq in self._buffered:
                self.duplicates += 1
                return out
            self._buffered[message.seq] = message
            while self.next_seq in self._buffered:
                out.extend(
                    self._handler(self._buffered.pop(self.next_seq))
                )
                self.next_seq += 1
        elif isinstance(message, PublishingMsg):
            self._pending_publishing.append(message)
        elif isinstance(message, CnPublishing):
            if message.publication in self._publishing_delivered:
                out.extend(self._deliver_cn(message))
            else:
                self._pending_cn.append(message)
        elif isinstance(message, NewPublication):
            self._pending_new.append(message)
        elif isinstance(message, NodeDown):
            self._dead.add(message.node_id)
            for absolved in self._absolved.values():
                absolved.add(message.node_id)
            out.extend(self._handler(message))
        elif isinstance(message, MembershipMsg):
            out.extend(self._apply_membership(message))
        else:
            out.extend(self._handler(message))
        out.extend(self._drain_gates())
        return out

    def _apply_membership(
        self, message: MembershipMsg
    ) -> list[tuple[str, object]]:
        for node, epoch in message.joined:
            if epoch > self._node_epochs.get(node, 0):
                self._node_epochs[node] = epoch
        down = set(message.down)
        for absolved in self._absolved.values():
            absolved |= down
        self._dead = down
        # Forward with the join floors stripped: the gate's seq dedup
        # already guarantees exactly-once delivery, and a batch admitted
        # here must not be re-judged stale by the checking node after a
        # later rejoin raises its producer's floor.
        return self._handler(
            MembershipMsg(
                epoch=message.epoch,
                members=message.members,
                retired=message.retired,
                down=message.down,
                joined=(),
            )
        )

    def _deliver_cn(self, message: CnPublishing) -> list[tuple[str, object]]:
        acked = self._acked.get(message.publication)
        if acked is not None:
            acked.add(message.node_id)
        return self._handler(message)

    def _finalised(self, publication: int) -> bool:
        acked = self._acked[publication]
        absolved = self._absolved.get(publication, set())
        expected = self._expected.get(publication)
        if expected is None:
            expected = range(self._num_nodes)
        return all(
            node in acked or node in absolved or node in self._dead
            for node in expected
        )

    def _drain_gates(self) -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = []
        progress = True
        while progress:
            progress = False
            while self._pending_publishing:
                head = self._pending_publishing[0]
                if head.last_seq >= 0 and self.next_seq <= head.last_seq:
                    break
                self._pending_publishing.popleft()
                out.extend(self._handler(head))
                self._publishing_delivered.add(head.publication)
                self._acked.setdefault(head.publication, set())
                self._expected[head.publication] = (
                    set(head.nodes) if head.nodes else None
                )
                self._absolved.setdefault(
                    head.publication, set()
                ).update(self._dead)
                released, still_waiting = [], deque()
                for waiting in self._pending_cn:
                    if waiting.publication in self._publishing_delivered:
                        released.append(waiting)
                    else:
                        still_waiting.append(waiting)
                self._pending_cn = still_waiting
                for message in released:
                    out.extend(self._deliver_cn(message))
                progress = True
            while self._pending_new:
                if self._pending_publishing or not all(
                    self._finalised(p) for p in self._acked
                ):
                    break
                done = [p for p in self._acked if self._finalised(p)]
                for publication in done:
                    del self._acked[publication]
                    self._expected.pop(publication, None)
                    self._absolved.pop(publication, None)
                out.extend(self._handler(self._pending_new.popleft()))
                progress = True
        return out
