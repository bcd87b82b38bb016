"""Worker-process entry points of the shared-memory runtime.

Each worker attaches to its rings by name, rebuilds its component from
the cluster spec (:mod:`repro.runtime.roles`), and loops: read a frame
(zero-copy), decode, handle, forward the outbox into its outbound
rings, then — and only then — commit the frame.  That commit discipline
is the crash-safety contract: a frame's ring space is released only
after its effects are durable downstream, so the parent can redispatch
everything at or past a dead worker's committed head without losing or
duplicating records.

The checking worker additionally restores *dispatch order*: computing
nodes run in parallel, so their :class:`PairBatch` streams interleave
arbitrarily.  :class:`CheckingGate` re-serialises them by the
dispatcher's global batch sequence number and holds *publishing* /
*CN-publishing* control messages until their gates clear — after which
the checking node observes exactly the synchronous runtime's delivery
order (the byte-identity property the equivalence harness pins).

Shutdown cascades along the dataflow: the parent closes its outbound
rings; a worker exits when every inbound ring is closed and fully
consumed, closing its own outbound rings on the way out.
"""

from __future__ import annotations

import json
import time

from repro.cloud.storage import file_digests
from repro.core.messages import RingAttach
from repro.runtime.gate import CheckingGate
from repro.runtime.roles import (
    build_handler,
    cipher_from_spec,
    config_from_spec,
)
from repro.runtime.shm.channel import ShmChannel
from repro.runtime.shm.ring import RingBuffer, StatsBlock
from repro.runtime.wire import decode_message
from repro.telemetry.clock import WALL_CLOCK

#: Per-worker counter namespace width for SimulatedCipher IV counters —
#: disjoint 2**44 ranges per worker keep counter IVs collision-free
#: across processes that no longer share the counter lock.
COUNTER_NAMESPACE_BITS = 44

#: StatsBlock field layout per role (worker → parent, lock-free).
STATS_FIELDS = {
    "cn": ("heartbeat", "handled"),
    "checking": (
        "heartbeat",
        "handled",
        "pairs_processed",
        "dummies_passed",
        "records_removed",
        "duplicates",
        "stale_discards",
    ),
    "merger": ("heartbeat", "handled"),
    "cloud": ("heartbeat", "handled"),
}


def stats_fields(role: str) -> tuple[str, ...]:
    """The stats-block layout for ``role`` (cluster and worker agree)."""
    return STATS_FIELDS["cn" if role.startswith("cn-") else role]


class _IdleBackoff:
    """Consumer-side poll backoff with one stall count per episode."""

    def __init__(self, ring: RingBuffer):
        self._ring = ring
        self._delay = 0.0
        self._stalled = False

    def progressed(self) -> None:
        self._delay = 0.0
        self._stalled = False

    def idle(self) -> None:
        if not self._stalled:
            self._stalled = True
            self._ring.count_consumer_stall()
        time.sleep(self._delay or 0.00005)
        self._delay = min(0.002, (self._delay or 0.00005) * 2)


def run_worker(
    role: str,
    spec: dict,
    inbound: dict[str, str],
    outbound: dict[str, str],
    stats_name: str,
    worker_index: int,
) -> None:
    """Process entry point: serve ``role`` until the inbound rings drain.

    ``inbound``/``outbound`` map logical names to shared-memory segment
    names; ``worker_index`` namespaces the worker's IV counter range.
    """
    config = config_from_spec(spec)
    cipher = cipher_from_spec(
        spec, counter_start=(worker_index + 1) << COUNTER_NAMESPACE_BITS
    )
    stats = StatsBlock(stats_fields(role), name=stats_name)
    in_rings = {
        key: RingBuffer(name=name) for key, name in inbound.items()
    }
    out_rings = {
        dest: RingBuffer(name=name) for dest, name in outbound.items()
    }
    channel = ShmChannel(out_rings)
    try:
        if role.startswith("cn-"):
            _computing_node_loop(role, spec, config, cipher, in_rings, channel, stats)
        elif role == "checking":
            _checking_loop(role, spec, config, cipher, in_rings, channel, stats)
        elif role == "merger":
            _merger_loop(role, spec, config, cipher, in_rings, channel, stats)
        elif role == "cloud":
            _cloud_loop(role, spec, config, cipher, in_rings, channel, stats)
        else:
            raise ValueError(f"unknown role {role!r}")
    finally:
        channel.close()
        for ring in in_rings.values():
            ring.detach()
        for ring in out_rings.values():
            ring.detach()
        stats.detach()


def _computing_node_loop(
    role, spec, config, cipher, in_rings, channel, stats
) -> None:
    handler, node = build_handler(role, config, cipher, {})
    data = in_rings["data"]
    done = in_rings["done"]
    backoff = _IdleBackoff(data)
    # Frames whose outputs are *held in node memory* (between
    # *publishing* and *done*): committing them would tell a recovering
    # parent their records are safe downstream when they are not, so the
    # commit is deferred until the node drains its hold buffer.
    deferred = []
    handled = 0
    while True:
        progressed = False
        frame = done.read()
        if frame is not None:
            _, message = decode_message(frame.view)
            channel.send_all(handler(message))
            done.commit(frame)
            progressed = True
        frame = data.read()
        if frame is not None:
            _, message = decode_message(frame.view)
            channel.send_all(handler(message))
            if node.waiting_for_done:
                deferred.append(frame)
            else:
                data.commit(frame)
                deferred.clear()
            handled += 1
            progressed = True
        if not node.waiting_for_done and deferred:
            data.commit(deferred[-1])
            deferred.clear()
        now = WALL_CLOCK.now()
        data.beat(now)
        stats.write("heartbeat", now)
        stats.write("handled", handled)
        if progressed:
            backoff.progressed()
            continue
        # Exit on the *data* ring alone: the done ring stays open until
        # the checking worker exits, which itself waits for this node's
        # outbound to close — requiring done.drained() here would
        # deadlock the shutdown cascade.  data drained + not waiting
        # means no done notice can still matter.
        if data.drained() and not node.waiting_for_done and not deferred:
            return
        backoff.idle()


def _checking_loop(
    role, spec, config, cipher, in_rings, channel, stats
) -> None:
    handler, node = build_handler(
        role, config, cipher, spec.get("seeds", {})
    )
    gate = CheckingGate(handler, config.num_computing_nodes)
    parent = in_rings["parent"]
    cn_rings = {
        key: ring for key, ring in sorted(in_rings.items())
        if key.startswith("cn-")
    }
    backoff = _IdleBackoff(parent)
    handled = 0

    def flush_stats() -> None:
        # Written before the outbox is forwarded, so a downstream
        # receipt always implies these counters are at least as fresh.
        now = WALL_CLOCK.now()
        parent.beat(now)
        stats.write("heartbeat", now)
        stats.write("handled", handled)
        stats.write("pairs_processed", node.pairs_processed)
        stats.write("dummies_passed", node.dummies_passed)
        stats.write("records_removed", node.records_removed)
        stats.write("duplicates", gate.duplicates)
        stats.write("stale_discards", gate.stale_discards)

    def attach(message: RingAttach) -> None:
        # Runtime admission/rejoin (docs/PROTOCOL.md): swap in the new
        # incarnation's rings.  A rejoining node's old inbound ring is
        # drained through the gate first — forwards the dead incarnation
        # committed are the only copy of their batches; anything else is
        # deduplicated or discarded as stale.  The parent closed the old
        # ring at death time, so the drain terminates.
        key = f"cn-{message.node_id}"
        old = cn_rings.pop(key, None)
        if old is not None:
            while True:
                frame = old.read()
                if frame is None:
                    if old.drained():
                        break
                    time.sleep(0.0001)
                    continue
                _, leftover = decode_message(frame.view)
                channel.send_all(gate.feed(leftover))
                old.commit(frame)
            in_rings.pop(key, None)
            old.detach()
        ring = RingBuffer(name=message.inbound)
        in_rings[key] = ring
        cn_rings[key] = ring
        stale_out = channel.rings.pop(key, None)
        if stale_out is not None:
            stale_out.detach()
        channel.rings[key] = RingBuffer(name=message.outbound)

    while True:
        progressed = False
        # Parent frames first: a RingAttach may rewire the cn ring set.
        frame = parent.read()
        if frame is not None:
            _, message = decode_message(frame.view)
            if isinstance(message, RingAttach):
                attach(message)
            else:
                outbox = gate.feed(message)
                handled += 1
                flush_stats()
                channel.send_all(outbox)
            parent.commit(frame)
            progressed = True
        for ring in list(cn_rings.values()):
            frame = ring.read()
            if frame is None:
                continue
            _, message = decode_message(frame.view)
            outbox = gate.feed(message)
            handled += 1
            flush_stats()
            channel.send_all(outbox)
            ring.commit(frame)
            progressed = True
        if progressed:
            backoff.progressed()
            continue
        if parent.drained() and all(
            ring.drained() for ring in cn_rings.values()
        ):
            flush_stats()
            return
        backoff.idle()


def _merger_loop(
    role, spec, config, cipher, in_rings, channel, stats
) -> None:
    handler, node = build_handler(
        role, config, cipher, spec.get("seeds", {})
    )
    inbound = in_rings["checking"]
    backoff = _IdleBackoff(inbound)
    handled = 0
    while True:
        frame = inbound.read()
        if frame is not None:
            _, message = decode_message(frame.view)
            channel.send_all(handler(message))
            inbound.commit(frame)
            handled += 1
            now = WALL_CLOCK.now()
            inbound.beat(now)
            stats.write("heartbeat", now)
            stats.write("handled", handled)
            backoff.progressed()
            continue
        stats.write("heartbeat", WALL_CLOCK.now())
        if inbound.drained():
            return
        backoff.idle()


def _cloud_loop(role, spec, config, cipher, in_rings, channel, stats) -> None:
    from repro.core.messages import AnnouncePublication, BufferFlush

    handler, (cloud, adapter) = build_handler(role, config, cipher, {})
    checking = in_rings["checking"]
    merger = in_rings["merger"]
    control = in_rings["control"]
    events = channel.rings["parent"]
    backoff = _IdleBackoff(checking)
    announced: set[int] = set()
    flushed: set[int] = set()
    receipts_sent = 0
    handled = 0

    def consume_checking() -> bool:
        frame = checking.read()
        if frame is None:
            return False
        _, message = decode_message(frame.view)
        if isinstance(message, AnnouncePublication):
            announced.add(message.publication)
        handler(message)
        if isinstance(message, BufferFlush):
            flushed.add(message.publication)
        checking.commit(frame)
        return True

    def emit_receipts() -> None:
        nonlocal receipts_sent
        while receipts_sent < len(adapter.receipts):
            receipt = adapter.receipts[receipts_sent]
            receipts_sent += 1
            events.put(
                json.dumps(
                    {
                        "event": "receipt",
                        "pub": receipt.publication,
                        "records": receipt.records_matched,
                    }
                ).encode("utf-8")
            )

    while True:
        progressed = False
        raw = control.pop()
        if raw is not None:
            response = _cloud_control(
                json.loads(bytes(raw).decode("utf-8")),
                spec,
                config,
                cipher,
                cloud,
                adapter,
                announced,
                consume_checking,
                checking,
            )
            events.put(json.dumps(response).encode("utf-8"))
            progressed = True
        if consume_checking():
            handled += 1
            progressed = True
        frame = merger.read()
        if frame is not None:
            _, message = decode_message(frame.view)
            # The checking node sends BufferFlush to the cloud *before*
            # AlSnapshot to the merger, so by the time a merged
            # publication surfaces here its flush is already in the
            # checking ring — drain until it has been applied.
            while message.publication not in flushed:
                if not consume_checking():
                    time.sleep(0.0001)
            handler(message)
            merger.commit(frame)
            handled += 1
            progressed = True
        emit_receipts()
        now = WALL_CLOCK.now()
        checking.beat(now)
        stats.write("heartbeat", now)
        stats.write("handled", handled)
        if progressed:
            backoff.progressed()
            continue
        if checking.drained() and merger.drained() and control.drained():
            emit_receipts()
            return
        backoff.idle()


def _cloud_control(
    request,
    spec,
    config,
    cipher,
    cloud,
    adapter,
    announced,
    consume_checking,
    checking_ring,
):
    """Answer one parent control request inside the cloud worker."""
    rid = request.get("rid")
    op = request.get("op")
    if op == "status":
        return {
            "event": "response",
            "rid": rid,
            "publications": [r.publication for r in adapter.receipts],
            "records": [r.records_matched for r in adapter.receipts],
        }
    if op == "query":
        from repro.client.query_client import QueryClient

        client = QueryClient(config.schema, cipher, cloud)
        result = client.range_query(request["low"], request["high"])
        values = sorted(repr(record.values) for record in result.records)
        import hashlib

        return {
            "event": "response",
            "rid": rid,
            "count": len(values),
            "sha": hashlib.sha256("\n".join(values).encode()).hexdigest(),
            "values": [value for value in values[:100]],
        }
    if op == "fingerprint":
        # Barrier: wait until every publication the parent has opened is
        # announced here (the announce rides the checking ring), so the
        # fingerprint covers a quiescent pipeline.
        minimum = request.get("min_pub", -1)
        while minimum >= 0 and minimum not in announced:
            if not consume_checking():
                if checking_ring.drained():
                    break
                time.sleep(0.0001)
        return {
            "event": "response",
            "rid": rid,
            "fingerprint": _cloud_fingerprint(cloud),
        }
    return {"event": "response", "rid": rid, "error": f"unknown op {op!r}"}


def _cloud_fingerprint(cloud) -> dict:
    """The cloud-resident half of the equivalence fingerprint.

    Mirrors :func:`repro.benchfab.fingerprint.cloud_state_fingerprint`
    field for field (the checking-side counters ride the stats block
    instead).
    """
    return {
        "files": {
            str(file_id): list(entry)
            for file_id, entry in file_digests(cloud.store).items()
        },
        "receipts": {
            str(publication): cloud.receipt_for(publication).records_matched
            for publication in sorted(cloud._done)
        },
        "duplicate_pairs": cloud.duplicate_pairs,
    }
