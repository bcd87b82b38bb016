"""Order-restoring gate in front of the checking node.

Computing nodes run in parallel, so their :class:`PairBatch` streams
interleave arbitrarily on the way to the checking node.  The gate
re-serialises them by the dispatcher's global batch sequence number and
holds *publishing* / *CN-publishing* control messages until their gates
clear — after which the checking node observes exactly the synchronous
runtime's delivery order (the byte-identity property the equivalence
harness pins).  The scheduled and TCP runtimes always wrap their
checking handler in one, whatever ``config.deterministic_ivs`` says.
Its seq rule is also what makes a crash re-send exactly-once: the twin
of a re-sent batch is dropped here, so the cloud never receives a
record twice (docs/PROTOCOL.md).
"""

from __future__ import annotations

from collections import deque

from repro.core.messages import (
    CnPublishing,
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
       dispatcher's global ``seq`` order.  A batch with ``seq`` below
       the next expected — or equal to one already buffered — is the
       twin of a crash re-send and is dropped (counted in
       :attr:`duplicates`).
    2. **Publishing gate**: a :class:`PublishingMsg` waits until every
       batch with ``seq <= last_seq`` has been delivered.
    3. **CnPublishing gate**: a node's publishing acknowledgement waits
       until its publication's :class:`PublishingMsg` has been
       delivered (the synchronous broadcast order).
    4. **NewPublication gate**: publication ``p``'s announcement waits
       until every publication before ``p`` has *finalised* — its
       publishing broadcast delivered and every live node's
       acknowledgement in.  Finalisation shuffles the randomer buffer
       (an RNG draw), so the next interval's eviction draws must not
       overtake it.  Later publications do not hold it back: their
       pairs stay at the computing nodes until ``p``'s *done*, which
       needs ``p`` announced.

    :class:`NodeDown` passes through immediately (matching the
    dispatcher, which emits it out of band) and relaxes the ack gate: a
    dead node's acknowledgement stops being waited for.
    """

    def __init__(self, handler, num_nodes: int):
        self._handler = handler
        self._num_nodes = num_nodes
        self.next_seq = 0
        self.duplicates = 0
        self._buffered: dict[int, PairBatch] = {}
        self._pending_publishing: deque[PublishingMsg] = deque()
        self._pending_cn: deque[CnPublishing] = deque()
        self._pending_new: deque[NewPublication] = deque()
        self._publishing_delivered: set[int] = set()
        # publication → nodes that acknowledged; the entry exists while
        # finalisation is outstanding (created at PublishingMsg delivery).
        self._acked: dict[int, set[int]] = {}
        self._dead: set[int] = set()

    @property
    def pending(self) -> int:
        """Messages held back waiting for a gate."""
        return (
            len(self._buffered)
            + len(self._pending_publishing)
            + len(self._pending_cn)
            + len(self._pending_new)
        )

    def feed(self, message) -> list[tuple[str, object]]:
        """Admit one message; returns the outbox of everything released."""
        out: list[tuple[str, object]] = []
        if isinstance(message, PairBatch) and message.seq >= 0:
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
            out.extend(self._handler(message))
        else:
            out.extend(self._handler(message))
        out.extend(self._drain_gates())
        return out

    def _deliver_cn(self, message: CnPublishing) -> list[tuple[str, object]]:
        acked = self._acked.get(message.publication)
        if acked is not None:
            acked.add(message.node_id)
        return self._handler(message)

    def _finalised(self, publication: int) -> bool:
        acked = self._acked[publication]
        return all(
            node in acked or node in self._dead
            for node in range(self._num_nodes)
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
                publication = self._pending_new[0].publication
                earlier = [p for p in self._acked if p < publication]
                if any(
                    held.publication < publication
                    for held in self._pending_publishing
                ) or not all(self._finalised(p) for p in earlier):
                    break
                for finalised in earlier:
                    del self._acked[finalised]
                out.extend(self._handler(self._pending_new.popleft()))
                progress = True
        return out
