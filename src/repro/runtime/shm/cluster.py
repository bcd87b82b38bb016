"""Parent-side driver of the shared-memory multiprocess runtime.

:class:`ShmFresqueCluster` runs the dispatcher in the parent process and
every other FRESQUE component (computing nodes, checking node, merger,
cloud) in its own worker process, connected by single-producer
single-consumer ring buffers over ``multiprocessing.shared_memory``
(:mod:`repro.runtime.shm.ring`).  Batches are encoded once into a ring
frame on the producer and decoded straight out of the consumer's mapped
view — the zero-copy path that lets the pipeline scale past the GIL
without the TCP runtime's per-hop serialisation.

Ring topology for ``k`` computing nodes (label → producer → consumer)::

    p2c<i>   parent   → cn-<i>    raw batches, publishing
    k2c<i>   checking → cn-<i>    done notices
    c<i>2k   cn-<i>   → checking  pair batches, cn-publishing
    p2k      parent   → checking  new-publication, publishing
    k2m      checking → merger    templates, removed, AL snapshots
    k2cl     checking → cloud     announce, to-cloud batches, flushes
    k2p      checking → parent    credit grants (backpressure control)
    m2cl     merger   → cloud     merged publications
    p2cl     parent   → cloud     control requests (raw JSON)
    cl2p     cloud    → parent    receipts + control responses (raw JSON)

Determinism: with ``config.deterministic_ivs`` the cluster's final cloud
state is byte-identical to the in-memory :class:`FresqueSystem` driven
with the same seed — the parent replicates its seed-derivation chain,
the dispatcher stamps every batch with a global sequence number, and the
checking worker's :class:`~repro.runtime.shm.workers.CheckingGate`
restores dispatch order before the randomer draws (docs/RUNTIMES.md).

Fault tolerance: the parent supervises the workers.  A dead computing
node is taken out of the dispatcher's rotation (PR 3's degraded path),
its data ring's uncommitted backlog is drained and redispatched to the
survivors, and the checking worker deduplicates the overlap by batch
sequence number — no record lost, none double-counted.  With
``data_dir`` set, the parent mirrors the durable collector's
write-ahead/ledger discipline (journal *open* before dispatch, *close*
before the publishing broadcast, ε commit only after the cloud receipt).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import random

from repro.core.config import FresqueConfig
from repro.core.messages import RingAttach
from repro.core.system import FresqueSystem
from repro.index.perturb import draw_noise_plan
from repro.index.tree import IndexTree
from repro.runtime.backoff import await_condition
from repro.runtime.poller import FlushPoller, poll_interval
from repro.runtime.roles import spec_from_config
from repro.runtime.shm.channel import ShmChannel
from repro.runtime.shm.ring import RingBuffer, StatsBlock
from repro.runtime.shm.workers import run_worker, stats_fields
from repro.runtime.wire import decode_message
from repro.telemetry.clock import WALL_CLOCK
from repro.telemetry.exporters import mirror_shared_stats

#: Capacity of the JSON control/event rings (requests and receipts are
#: tiny; the data rings get the configurable capacity).
CONTROL_RING_CAPACITY = 1 << 16

#: Supervision cadence: worker liveness and telemetry are checked every
#: this many parent-side sends (liveness is a cheap ``waitpid`` poll,
#: but per-record would still dominate small batches).
SUPERVISE_EVERY = 64


def _fork_context():
    """Prefer ``fork`` (workers inherit nothing they need beyond the
    picklable args, and fork avoids re-importing the world); fall back
    to the platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class WorkerDied(RuntimeError):
    """A non-recoverable worker (checking/merger/cloud) exited."""


class ShmFresqueCluster(FresqueSystem):
    """A multiprocess FRESQUE deployment over shared-memory rings.

    The collector driver (:class:`~repro.core.system.FresqueSystem`) with
    only the dispatcher in the parent: every other component lives in a
    worker process, built there from the spec by
    :func:`~repro.runtime.roles.build_handler`.

    Parameters
    ----------
    config:
        Deployment configuration (``num_computing_nodes`` worker
        processes plus checking, merger and cloud).
    key:
        Master key bytes; each worker rebuilds the shared
        :class:`SimulatedCipher` from it (disjoint IV-counter ranges —
        see :data:`~repro.runtime.shm.workers.COUNTER_NAMESPACE_BITS`).
    seed:
        Seed for all randomness, derived exactly as the in-memory
        :class:`~repro.core.system.FresqueSystem` derives it
        (dispatcher, checking, merger — in that order).
    data_dir:
        When set, the parent runs the durable collector discipline:
        write-ahead journal, ε ledger and two-phase publication commit
        (mirroring :class:`~repro.durability.system.DurableFresqueSystem`).
    ring_capacity:
        Bytes per data ring (must exceed twice the largest frame; the
        merged-publication frame grows with the domain's leaf count, so
        wide domains like Gowalla need the default's headroom).
    """

    def __init__(
        self,
        config: FresqueConfig,
        key: bytes,
        seed: int | None = None,
        *,
        telemetry=None,
        data_dir=None,
        ring_capacity: int = 1 << 22,
        sync_every: int = 256,
        horizon: int = 52,
        total_epsilon: float | None = None,
        put_timeout: float = 30.0,
        fault_plan=None,
    ):
        # Consulted once per parent-side send: frames can be dropped,
        # delayed or duplicated exactly as on the threaded transport.
        # Sever rules are no-ops here (rings have no connection to
        # sever); node crashes use kill_worker() / crash_node().
        self._fault_plan = fault_plan
        self._spec = spec_from_config(config, key)
        super().__init__(config, None, seed=seed, telemetry=telemetry)
        self._ring_capacity = ring_capacity
        self._put_timeout = put_timeout
        self._rings: dict[str, RingBuffer] = {}
        self._stats: dict[str, StatsBlock] = {}
        self._retired_stats: list[StatsBlock] = []
        self._procs: dict[str, object] = {}
        # Elastic membership bookkeeping: node id → its current
        # incarnation's rings, node id → incarnation counter (ring and
        # stats segment names must be unique per incarnation), and the
        # next worker index (fresh IV-counter namespace per spawn).
        self._node_rings: dict[int, dict[str, RingBuffer]] = {}
        self._generations: dict[int, int] = {}
        self._next_worker_index = 0
        self._receipts: dict[int, int] = {}
        self._responses: dict[int, dict] = {}
        self._next_rid = 0
        self._sends = 0
        self._closed = False
        # The poller also drains the credit ring: the driver lock
        # serialises it against the feeder on the parent-consumed rings
        # (k2p and cl2p are SPSC — one consumer at a time).
        self._poller = FlushPoller(
            poll_interval(config.max_batch_delay), self._tick
        )
        self.durable = data_dir is not None
        if self.durable:
            from repro.durability.journal import WriteAheadJournal
            from repro.durability.ledger import BudgetLedger
            from repro.privacy.accountant import PublicationAccountant

            self.data_dir = pathlib.Path(data_dir)
            self.data_dir.mkdir(parents=True, exist_ok=True)
            self.journal = WriteAheadJournal(
                self.data_dir / "journal.wal",
                sync_every=sync_every,
                telemetry=telemetry,
            )
            self.accountant = PublicationAccountant(
                total_epsilon
                if total_epsilon is not None
                else config.epsilon * horizon,
                horizon,
                ledger=BudgetLedger(self.data_dir / "epsilon.ledger"),
            )
            self._tree_shape = IndexTree(config.domain, fanout=config.fanout)

    def _build_components(self, rng: random.Random, cloud) -> None:
        # The components are built in the workers; the parent only
        # carries the float chain FresqueSystem hands its checking and
        # merger RNGs.
        self._spec["seeds"] = {
            "checking": rng.random(),
            "merger": rng.random(),
        }

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def _make_ring(self, label: str, capacity: int) -> RingBuffer:
        ring = RingBuffer(
            name=f"frq{self._token}-{label}", capacity=capacity, create=True
        )
        self._rings[label] = ring
        return ring

    def _spawn(self) -> None:
        """Create the rings, spawn the workers, start the poller."""
        self._token = os.urandom(4).hex()
        k = self.config.num_computing_nodes
        for i in range(k):
            self._make_ring(f"p2c{i}", self._ring_capacity)
            self._make_ring(f"c{i}2k", self._ring_capacity)
            self._make_ring(f"k2c{i}", CONTROL_RING_CAPACITY)
        self._make_ring("p2k", CONTROL_RING_CAPACITY)
        self._make_ring("k2p", CONTROL_RING_CAPACITY)
        self._make_ring("k2m", self._ring_capacity)
        self._make_ring("k2cl", self._ring_capacity)
        self._make_ring("m2cl", self._ring_capacity)
        self._make_ring("p2cl", CONTROL_RING_CAPACITY)
        self._make_ring("cl2p", CONTROL_RING_CAPACITY)
        self._node_rings = {
            i: {
                "data": self._rings[f"p2c{i}"],
                "pair": self._rings[f"c{i}2k"],
                "done": self._rings[f"k2c{i}"],
            }
            for i in range(k)
        }
        self._generations = {i: 0 for i in range(k)}
        self._next_worker_index = k + 3

        def name(label: str) -> str:
            return self._rings[label].name

        plans = [
            (
                f"cn-{i}",
                {"data": name(f"p2c{i}"), "done": name(f"k2c{i}")},
                {"checking": name(f"c{i}2k")},
                i,
            )
            for i in range(k)
        ]
        plans.append(
            (
                "checking",
                {
                    "parent": name("p2k"),
                    **{f"cn-{i}": name(f"c{i}2k") for i in range(k)},
                },
                {
                    **{f"cn-{i}": name(f"k2c{i}") for i in range(k)},
                    "merger": name("k2m"),
                    "cloud": name("k2cl"),
                    "dispatcher": name("k2p"),
                },
                k,
            )
        )
        plans.append(
            ("merger", {"checking": name("k2m")}, {"cloud": name("m2cl")}, k + 1)
        )
        plans.append(
            (
                "cloud",
                {
                    "checking": name("k2cl"),
                    "merger": name("m2cl"),
                    "control": name("p2cl"),
                },
                {"parent": name("cl2p")},
                k + 2,
            )
        )
        ctx = _fork_context()
        for role, inbound, outbound, index in plans:
            block = StatsBlock(
                stats_fields(role),
                name=f"frq{self._token}-st-{role}",
                create=True,
            )
            self._stats[role] = block
            proc = ctx.Process(
                target=run_worker,
                args=(role, self._spec, inbound, outbound, block.name, index),
                name=f"fresque-shm-{role}",
                daemon=True,
            )
            proc.start()
            self._procs[role] = proc
        self._channel = ShmChannel(
            {
                **{f"cn-{i}": self._rings[f"p2c{i}"] for i in range(k)},
                "checking": self._rings["p2k"],
            },
            abort_for=self._abort_probe,
            timeout=self._put_timeout,
        )
        self._poller.start()

    # ------------------------------------------------------------------
    # Sending + supervision
    # ------------------------------------------------------------------

    def _abort_probe(self, destination: str):
        proc = self._procs.get(destination)
        if proc is None:
            return None
        return lambda: not proc.is_alive()

    _send_all = FresqueSystem._transmit_all

    def _send(self, destination: str, message) -> bool:
        if self._channel.send(destination, message):
            self._sends += 1
            if self._sends % SUPERVISE_EVERY == 0:
                self._supervise()
            return True
        # The destination's ring is closed or its consumer died mid-put.
        if destination.startswith("cn-"):
            return False
        raise WorkerDied(f"worker {destination!r} is gone")

    def _supervise(self) -> None:
        """Poll worker liveness, drain cloud events, refresh gauges."""
        with self._lock:
            for role, proc in list(self._procs.items()):
                if proc.is_alive():
                    continue
                if role.startswith("cn-"):
                    self._node_down(int(role[3:]))
                else:
                    raise WorkerDied(
                        f"worker {role!r} exited with code {proc.exitcode}"
                    )
            self._pump_credits()
            self._pump_events()
        self._flush_telemetry()

    def _pump_credits(self) -> None:
        """Drain the checking worker's credit grants (k2p control ring)
        into the dispatcher, sending whatever batches they release."""
        ring = self._rings.get("k2p")
        if ring is None:
            return
        with self._lock:
            while True:
                payload = ring.pop()
                if payload is None:
                    return
                _, message = decode_message(payload)
                self._handle_dispatcher(message)

    def _tick(self) -> None:
        """Poller tick: pump credits, then the shared flush tick."""
        with self._lock:
            self._pump_credits()
            self._poll_flush()

    def _salvage(self, node_id: int):
        """Reap a dead computing node's process and take its data ring's
        uncommitted backlog — everything at or past its last committed
        frame.  Batches the dead node had already forwarded but not
        committed come back too; the checking gate drops their
        redispatched twins as sequence-number duplicates."""
        proc = self._procs.pop(f"cn-{node_id}", None)
        if proc is not None:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        rings = self._node_rings[node_id]
        data_ring = rings["data"]
        backlog = [
            decode_message(payload)[1]
            for payload in data_ring.drain_backlog()
        ]
        data_ring.mark_closed()
        # Take over the dead producer's end-of-stream duty so the
        # checking worker can drain its ring and move on; close the
        # done ring so checking's future sends to it fail fast.
        rings["pair"].mark_closed()
        rings["done"].mark_closed()
        self.telemetry.counter("shm_cn_deaths").inc()
        return backlog

    def _pump_events(self) -> bool:
        ring = self._rings["cl2p"]
        progressed = False
        with self._lock:
            while True:
                payload = ring.pop()
                if payload is None:
                    return progressed
                event = json.loads(payload.decode("utf-8"))
                if event.get("event") == "receipt":
                    self._receipts[event["pub"]] = event["records"]
                elif event.get("event") == "response":
                    self._responses[event["rid"]] = event
                progressed = True

    def _flush_telemetry(self) -> None:
        tel = self.telemetry
        if not getattr(tel, "enabled", True):
            return
        now = WALL_CLOCK.now()
        for label, ring in self._rings.items():
            tel.gauge("shm_ring_used", ring=label).set(ring.used)
            tel.gauge("shm_ring_producer_stalls", ring=label).set(
                ring.producer_stalls
            )
            tel.gauge("shm_ring_consumer_stalls", ring=label).set(
                ring.consumer_stalls
            )
            beat = ring.heartbeat
            if beat:
                tel.gauge("shm_ring_heartbeat_age", ring=label).set(
                    max(0.0, now - beat)
                )
        for role, block in self._stats.items():
            mirror_shared_stats(tel, role, block.read_all())

    # ------------------------------------------------------------------
    # Publications
    # ------------------------------------------------------------------

    def _open_publication(self) -> None:
        if not self.durable:
            return super()._open_publication()
        grant = self.accountant.grant()
        plan = draw_noise_plan(
            self._tree_shape, grant.epsilon, rng=self.dispatcher._rng
        )
        self.journal.append_open(grant.publication, plan, grant.epsilon)
        self._send_all(self.dispatcher.start_publication(plan))
        if self.dispatcher.publication != grant.publication:
            raise RuntimeError(
                f"grant {grant.publication} does not match dispatcher "
                f"publication {self.dispatcher.publication}"
            )

    def _end_publication(self) -> None:
        """Durable: journal *close* before the publishing broadcast, ε
        commit only after the cloud receipt."""
        if not self.durable:
            return super()._end_publication()
        publication = self.dispatcher.publication
        self.journal.append_close(publication)
        super()._end_publication()
        self.settle(publication)
        self.accountant.commit(publication)
        self.journal.append_commit(publication)

    def ingest(self, line: str) -> None:
        """Feed one raw line into the current publication (journalled
        first when durable)."""
        with self._lock:
            if self.durable:
                self.journal.append_raw_batch(
                    self.dispatcher.publication, [line]
                )
            super().ingest(line)

    def _feed(self, lines: list[str]) -> None:
        if not self.durable:
            return super()._feed(lines)
        if not self._started:
            self.start()
        # Group commit: one journal frame per dispatcher-batch-sized
        # chunk, ahead of any of its records reaching the pipeline.
        publication = self.dispatcher.publication
        total = max(1, len(lines))
        size = max(1, self.config.batch_size)
        for start in range(0, len(lines), size):
            chunk = lines[start : start + size]
            self.journal.append_raw_batch(publication, chunk)
            for position, line in enumerate(chunk, start):
                self.pump_dummies((position + 1) / (total + 1))
                super().ingest(line)

    def settle(self, publication: int, timeout: float = 120.0) -> None:
        """Block until the cloud's receipt for ``publication`` lands."""
        self._await_receipt(publication, timeout)

    def _receipt(self, publication: int):
        """The matched-record count — all of the cloud worker's receipt
        that crosses into the parent."""
        return self._receipts.get(publication)

    def run_publication(self, lines, timeout: float = 120.0) -> int:
        """Ingest ``lines`` with interleaved dummies, close the interval,
        open the next one and return the publication's matched-record
        count (the cloud receipt)."""
        self._feed(list(lines))
        return self.finish_publication(timeout)

    def _await_receipt(self, publication: int, timeout: float) -> int:
        def ready():
            self._supervise()
            records = self._receipts.get(publication)
            # +1 keeps a zero-record receipt truthy for await_condition.
            return None if records is None else records + 1

        return (
            await_condition(
                ready, timeout, f"publication {publication} never published"
            )
            - 1
        )

    @property
    def receipts(self) -> dict[int, int]:
        """Publication → matched-record count, as received so far."""
        self._pump_events()
        return dict(self._receipts)

    # ------------------------------------------------------------------
    # Cloud control channel
    # ------------------------------------------------------------------

    def _control(self, op: str, timeout: float = 60.0, **kw) -> dict:
        rid = self._next_rid
        self._next_rid += 1
        self._rings["p2cl"].put(
            json.dumps({"op": op, "rid": rid, **kw}).encode("utf-8"),
            timeout=timeout,
        )

        def ready():
            self._supervise()
            return self._responses.pop(rid, None)

        response = await_condition(
            ready, timeout, f"cloud control op {op!r} never answered"
        )
        if "error" in response:
            raise RuntimeError(response["error"])
        return response

    def status(self) -> dict:
        """The cloud's publication → matched-record map."""
        response = self._control("status")
        return dict(zip(response["publications"], response["records"]))

    def query_fingerprint(self, low: float, high: float) -> tuple:
        """Canonical digest of a cloud-side range query's answer.

        Comparable against the same digest computed over a reference
        system's *cloud-only* query (the collector-resident extras of
        :meth:`FresqueSystem.query` live in other processes here).
        """
        response = self._control("query", low=low, high=high)
        return response["count"], response["sha"]

    def fingerprint(self) -> dict:
        """The equivalence fingerprint, shaped exactly like
        ``tests/conftest.py::cloud_state_fingerprint``.

        The cloud-resident half is computed in the cloud worker behind
        an announce barrier (every publication the dispatcher has opened
        must have reached the cloud); the checking counters ride the
        checking worker's stats block.
        """
        response = self._control(
            "fingerprint", min_pub=self.dispatcher.publication
        )
        state = response["fingerprint"]
        stats = self._stats["checking"].read_all()
        return {
            "files": {
                int(file_id): tuple(entry)
                for file_id, entry in state["files"].items()
            },
            "receipts": {
                int(publication): records
                for publication, records in state["receipts"].items()
            },
            "pairs_processed": int(stats["pairs_processed"]),
            "dummies_passed": int(stats["dummies_passed"]),
            "records_removed": int(stats["records_removed"]),
            "duplicate_pairs": state["duplicate_pairs"],
        }

    # ------------------------------------------------------------------
    # Elastic membership (docs/PROTOCOL.md)
    # ------------------------------------------------------------------

    def _spawn_cn(self, node_id: int) -> tuple[RingBuffer, RingBuffer]:
        """Create rings + stats + process for one cn incarnation.

        Returns the (pair, done) rings the checking worker must attach.
        Every incarnation gets fresh shared-memory segments (unique
        names) and a fresh worker index — a disjoint IV-counter
        namespace, so a rejoined worker can never reuse its dead
        predecessor's counter IVs.
        """
        gen = self._generations.get(node_id, -1) + 1
        self._generations[node_id] = gen
        suffix = f"g{gen}" if gen else ""
        data = self._make_ring(f"p2c{node_id}{suffix}", self._ring_capacity)
        pair = self._make_ring(f"c{node_id}2k{suffix}", self._ring_capacity)
        done = self._make_ring(
            f"k2c{node_id}{suffix}", CONTROL_RING_CAPACITY
        )
        self._node_rings[node_id] = {
            "data": data, "pair": pair, "done": done,
        }
        role = f"cn-{node_id}"
        old_stats = self._stats.pop(role, None)
        if old_stats is not None:
            self._retired_stats.append(old_stats)
        block = StatsBlock(
            stats_fields(role),
            name=f"frq{self._token}-st-{role}{suffix}",
            create=True,
        )
        self._stats[role] = block
        index = self._next_worker_index
        self._next_worker_index += 1
        proc = _fork_context().Process(
            target=run_worker,
            args=(
                role,
                self._spec,
                {"data": data.name, "done": done.name},
                {"checking": pair.name},
                block.name,
                index,
            ),
            name=f"fresque-shm-{role}",
            daemon=True,
        )
        proc.start()
        self._procs[role] = proc
        self._channel.rings[role] = data
        return pair, done

    def _start_node(self, node_id: int) -> None:
        """A fresh worker process on fresh rings; the checking worker
        attaches them (draining a dead incarnation's leftovers first) —
        the :class:`RingAttach` rides the parent ring, ahead of the
        membership broadcast."""
        with self._lock:
            pair, done = self._spawn_cn(node_id)
            self._send_all(
                [("checking", RingAttach(node_id, pair.name, done.name))]
            )

    def _kill_node(self, node_id: int) -> None:
        """Hard-kill one computing node.  Unlike :meth:`kill_worker`,
        :meth:`crash_node` then absorbs the death synchronously, so
        callers can script crash/rejoin sequences without racing the
        supervision cadence."""
        if f"cn-{node_id}" in self._procs:
            self.kill_worker(f"cn-{node_id}")

    # ------------------------------------------------------------------
    # Fault injection + teardown
    # ------------------------------------------------------------------

    def kill_worker(self, role: str) -> None:
        """Hard-kill one worker (crash drills); detection is left to the
        normal supervision path, exactly as a real crash would be."""
        proc = self._procs[role]
        proc.kill()
        proc.join(timeout=5.0)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Close the parent rings, cascade-drain the workers, reap the
        shared memory.  Idempotent."""
        if not self._started or self._closed:
            return
        self._closed = True
        self._poller.stop()
        try:
            self._channel.close()
            self._rings["p2cl"].mark_closed()
            deadline = WALL_CLOCK.now() + timeout
            for role, proc in self._procs.items():
                proc.join(timeout=max(0.1, deadline - WALL_CLOCK.now()))
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
            self._pump_events()
            self._flush_telemetry()
        finally:
            for ring in self._rings.values():
                ring.detach()
                try:
                    ring.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            for block in [*self._stats.values(), *self._retired_stats]:
                block.detach()
                try:
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            if self.durable:
                self.journal.close()
                self.accountant.close()
