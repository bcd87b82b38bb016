"""The checking node: randomer + checker + updater (Section 5.3).

Runs sequentially but every per-record task is O(1):

* incoming ``<leaf offset, e-record>`` pairs — a batch is three parallel
  columns, here and all the way to the cloud — enter the randomer's
  fixed-size buffer; evicted pairs pass to the checker;
* the checker reads the pair's leaf offset ``i``: if ``ALN[i] < 0`` the
  record is *removed* (both ``ALN[i]`` and ``AL[i]`` incremented, pair sent
  to the merger), otherwise only ``AL[i]`` is incremented and the pair goes
  to the cloud;
* dummy pairs (recognised by the trusted-side flag) skip the arrays
  entirely and go straight to the cloud.

At a publication boundary — once the dispatcher's *publishing* notice and
the *publishing* messages of **all** live computing nodes arrived — the
node drains the randomer through the checker,
ships the final AL to the merger, publishes the shuffled residue to the
cloud and sends *done* back to the computing nodes.

State is kept per publication, from its announcement to its
finalisation.

The node is also the collector's one ordering layer.  Computing nodes run
in parallel, so their pair batches and reports interleave arbitrarily on
the way here; :meth:`CheckingNode.handle` admits each message under five
rules (docs/PROTOCOL.md, guarantee 4) and holds it until its rule clears,
so every runtime applies the synchronous driver's order.  A pair or a
report for a publication neither open nor held for announcement is a
:class:`ProtocolError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress

from repro.core.config import FresqueConfig
from repro.core.messages import (
    Admitted,
    AlSnapshot,
    AnnouncePublication,
    BufferFlush,
    CnPublishing,
    DoneMsg,
    NewPublication,
    NodeDown,
    PairBatch,
    PublishingMsg,
    RemovedBatch,
    Routed,
    TemplateMsg,
    ToCloudBatch,
)
from repro.core.randomer import Randomer
from repro.index.template import LeafArrays
from repro.records.codec import pairs_from_bytes, pairs_to_bytes
from repro.records.record import EncryptedRecord
from repro.telemetry.context import coalesce


def check_bulk(arrays: LeafArrays, leaves, ciphertexts, dummies) -> tuple:
    """Checker + updater over released pairs (columns), in release order.

    The one check of the collector — :class:`CheckingNode` runs it once
    per released batch.  Returns ``(removed leaves, removed ciphertexts,
    cloud leaves, cloud ciphertexts, dummies passed)``, every column a
    tuple.  Dummies never touch the arrays, so the non-dummy subsequence
    is updated through one :meth:`LeafArrays.check_and_update_bulk` call,
    whose per-offset decisions are those of the scalar
    :meth:`LeafArrays.check_and_update`.  With nothing removed the input
    columns are the cloud's, untouched.
    """
    dummy_count = sum(dummies)
    real_offsets = (
        [leaf for leaf, dummy in zip(leaves, dummies) if not dummy]
        if dummy_count
        else leaves
    )
    removed = arrays.check_and_update_bulk(real_offsets)
    if True not in removed:
        return (), (), tuple(leaves), tuple(ciphertexts), dummy_count
    removed_flags = iter(removed)
    kept = [dummy or not next(removed_flags) for dummy in dummies]
    lost = [not keep for keep in kept]
    return (
        tuple(compress(leaves, lost)),
        tuple(compress(ciphertexts, lost)),
        tuple(compress(leaves, kept)),
        tuple(compress(ciphertexts, kept)),
        dummy_count,
    )


class ProtocolError(RuntimeError):
    """A message the protocol order rules out reached the checking node."""


@dataclass
class _PublicationState:
    """Per-publication randomer + arrays + boundary bookkeeping, from
    the announcement until finalisation."""

    randomer: Randomer
    arrays: LeafArrays
    cn_reported: set[int] = field(default_factory=set)
    #: The dispatcher's own *publishing* notice arrived — needed to
    #: finalise.
    interval_closed: bool = False


class CheckingNode(Routed):
    """The sequential trusted node hosting randomer, checker and updater.

    :meth:`handle` admits a message before it is applied, and holds it
    until its rule clears:

    1. A stamped :class:`PairBatch` is applied in ``seq`` order.  A twin
       below :attr:`next_seq`, or of a held batch, is the twin of a
       crash re-send and is dropped (counted in :attr:`duplicates`).
    2. :class:`PublishingMsg` ``p`` waits until every batch with
       ``seq <= last_seq`` is applied and ``p`` is announced.
    3. :class:`CnPublishing` ``p`` waits until ``p`` is announced.
    4. :class:`NewPublication` ``p`` waits while a publication below
       ``p`` is open: finalisation shuffles the randomer (an RNG draw),
       so the next interval's eviction draws must not overtake it.
    5. :class:`NodeDown` applies at once.

    A held message is applied through :meth:`Routed.handle` once its rule
    clears, so the ``on_*`` handlers see every message, in the
    synchronous driver's order.  A publication finalises once its
    interval closed (the dispatcher's own :class:`PublishingMsg`) and
    every live computing node reported.

    Parameters
    ----------
    config:
        Deployment configuration (buffer size, node count, domain).
    rng:
        Seeded randomness for the randomer.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; times the
        ``check`` stage per released pair and the ``publish`` stage per
        publication boundary, and tracks randomer occupancy.
    """

    ROUTES = {
        PairBatch: "on_pair_batch",
        NewPublication: "on_new_publication",
        PublishingMsg: "on_publishing",
        CnPublishing: "on_cn_publishing",
        NodeDown: "on_node_down",
    }

    def __init__(
        self,
        config: FresqueConfig,
        rng: random.Random | None = None,
        telemetry=None,
    ):
        self.config = config
        self._rng = rng if rng is not None else random.Random()
        self._publications: dict[int, _PublicationState] = {}
        self._dead_nodes: set[int] = set()
        # Highest finalised publication: a CnPublishing at or below it
        # is a straggler (a dead node's report that lost the race
        # against the NodeDown finalising its publication); above it,
        # a publication without state was never announced.
        self._finalised_floor = -1
        self.pairs_processed = 0
        self.dummies_passed = 0
        self.records_removed = 0
        #: The dispatch ``seq`` of the next batch to apply (rule 1).
        self.next_seq = 0
        #: Batch twins dropped by rule 1.
        self.duplicates = 0
        # Stamped batches held by rule 1 (by seq) and the other held
        # messages, in arrival order.
        self._held_batches: dict[int, PairBatch] = {}
        self._held: list = []
        self._tel = coalesce(telemetry)
        self._removed_counter = self._tel.counter("checking_removed_total")
        self._dummies_counter = self._tel.counter("checking_dummies_total")
        self._occupancy_gauge = self._tel.gauge("randomer_occupancy")

    @property
    def pending(self) -> int:
        """Messages admission holds back."""
        return len(self._held_batches) + len(self._held)

    def handle(self, message) -> list[tuple[str, object]]:
        """Admit one message, then apply every held message whose rule
        clears (the class docstring's five rules); returns the outbox."""
        seq = message.seq if type(message) is PairBatch else -1
        if seq >= 0:
            if (
                seq == self.next_seq
                and not self._held_batches
                and not self._held
            ):
                # In order with nothing held: every rule holds now, and
                # applying it can release nothing else.
                self.next_seq += 1
                return super().handle(message)
            if seq < self.next_seq or seq in self._held_batches:
                self.duplicates += 1
                return []
            self._held_batches[seq] = message
        else:
            self._held.append(message)
        out: list[tuple[str, object]] = []
        while (ready := self._next_ready()) is not None:
            out += super().handle(ready)
        return out

    def _next_ready(self):
        """Remove and return a held message whose rule holds; ``None``
        if every held message still waits."""
        batch = self._held_batches.get(self.next_seq)
        if batch is not None and self._ready(batch):
            del self._held_batches[self.next_seq]
            self.next_seq += 1
            return batch
        for index, message in enumerate(self._held):
            if self._ready(message):
                return self._held.pop(index)
        return None

    def _announcing(self, publication: int) -> bool:
        """Whether ``publication``'s announcement is held (rule 4)."""
        if not self._held:
            return False
        return any(
            type(held) is NewPublication and held.publication == publication
            for held in self._held
        )

    def _ready(self, message) -> bool:
        """Whether a held message's rule holds (a stamped batch's seq
        is checked by the caller)."""
        kind = type(message)
        if kind is NewPublication:
            return not any(
                open_ < message.publication for open_ in self._publications
            )
        if kind is PublishingMsg and message.last_seq >= self.next_seq:
            return False
        if kind in (PublishingMsg, CnPublishing, PairBatch):
            return not self._announcing(message.publication)
        return True

    def state_of(self, publication: int) -> _PublicationState:
        """Internal state of ``publication`` (for tests and metrics)."""
        return self._publications[publication]

    def buffered_pairs(self) -> list[tuple[int, int, EncryptedRecord]]:
        """Pairs currently resident in the randomer buffers.

        Query processing must cover them (Section 5.3(c): records at the
        cloud, the randomer and the merger are returned to the client).
        Returns ``(publication, leaf offset, encrypted record)`` triples,
        each record built here from its columns; dummies are included —
        the client filters them after decryption.
        """
        return [
            (
                publication,
                leaf,
                EncryptedRecord(leaf, ciphertext, publication=publication),
            )
            for publication, state in self._publications.items()
            for leaf, ciphertext in zip(*state.randomer.columns()[:2])
        ]

    def buffered_in(self, leaves) -> list[bytes]:
        """Ciphertexts of the randomer residents under ``leaves``.

        What a query reads of :meth:`buffered_pairs` — the residents of
        every open publication whose leaf offset is in ``leaves`` — by
        leaf lookup instead of a scan, and as a column: no record is
        built.  It reads the randomers' live leaf views, so unlike
        :meth:`buffered_pairs` it must not run beside the thread that
        handles this node's messages.
        """
        return [
            ciphertext
            for state in self._publications.values()
            for _, ciphertext in state.randomer.ciphertexts_in(leaves)
        ]

    def on_new_publication(
        self, message: NewPublication
    ) -> list[tuple[str, object]]:
        """Initialise AL/ALN, forward the template and announce the PN."""
        state = _PublicationState(
            randomer=Randomer(self.config.randomer_buffer_size, rng=self._rng),
            arrays=LeafArrays(message.plan.leaf_noise),
        )
        self._publications[message.publication] = state
        return [
            ("merger", TemplateMsg(message.publication, message.plan)),
            ("cloud", AnnouncePublication(message.publication)),
        ]

    def _open_state(self, message) -> _PublicationState | None:
        """The state of ``message``'s publication; ``None`` if it was
        finalised already.  A publication above the finalised floor
        without state was never announced: a :class:`ProtocolError`."""
        state = self._publications.get(message.publication)
        if state is None and message.publication > self._finalised_floor:
            raise ProtocolError(
                f"{type(message).__name__} for publication "
                f"{message.publication}, which was never announced"
            )
        return state

    def _check_bulk(
        self, publication: int, state: _PublicationState, *columns
    ) -> list:
        """:func:`check_bulk` over released columns, timed and counted.

        Returns ``[merger messages, cloud leaves, cloud ciphertexts]``:
        what the run lost to negative noise leaves as one
        :class:`RemovedBatch`.
        """
        tel = self._tel
        start = tel.now()
        lost_leaves, lost_ciphertexts, *released, dummy_count = check_bulk(
            state.arrays, *columns
        )
        self.pairs_processed += len(columns[0])
        if dummy_count:
            self.dummies_passed += dummy_count
            self._dummies_counter.inc(dummy_count)
        out: list[tuple[str, object]] = []
        if lost_leaves:
            self.records_removed += len(lost_leaves)
            self._removed_counter.inc(len(lost_leaves))
            out.append(
                (
                    "merger",
                    RemovedBatch(publication, lost_leaves, lost_ciphertexts),
                )
            )
        tel.observe_stage("check", publication, start)
        return [out, *released]

    def _buffer_and_check(
        self, publication: int, state: _PublicationState, *columns
    ) -> list[tuple[str, object]]:
        """Randomer, then checker: what a run of pairs releases, routed.

        The pairs pass through the randomer strictly in order — each
        insert makes its own eviction draw, so the released stream (and
        therefore the final cloud state) does not depend on how the
        pairs were cut into batches.  Everything released to the cloud
        leaves as a single :class:`ToCloudBatch`, everything removed as a
        single :class:`RemovedBatch` to the merger.
        """
        columns = state.randomer.insert_batch(*columns)
        if self._tel.enabled:
            self._occupancy_gauge.set(len(state.randomer))
        if not columns[0]:
            return []
        out, *cloud = self._check_bulk(publication, state, *columns)
        if cloud[0]:
            out.append(("cloud", ToCloudBatch(publication, *cloud)))
        return out

    def on_pair_batch(self, message: PairBatch) -> list[tuple[str, object]]:
        """Buffer and check the batch (:meth:`_buffer_and_check`), and
        tell the dispatcher a stamped batch is admitted (:class:`Admitted`:
        it stops retaining the batch for a crash re-send)."""
        publication = message.publication
        state = self._publications.get(publication)
        if state is None:
            raise ProtocolError(
                f"pair batch for publication {publication}, which is not open"
            )
        columns = (message.leaves, message.ciphertexts, message.dummies)
        out = self._buffer_and_check(publication, state, *columns)
        if message.seq >= 0:
            out.append(("dispatcher", Admitted(message.seq)))
        return out

    def snapshot(self) -> dict:
        """Snapshot of per-publication progress: JSON-able, but for the
        packed pair columns, which are ``bytes`` (checkpoint sections).

        Captures, per open publication, the AL/ALN arrays, the randomer's
        resident pairs and the boundary bookkeeping, plus the dead set
        and the next batch ``seq`` to apply — everything a restarted
        checking node needs to continue mid-publication without
        reprocessing the records already released downstream.  Taken at
        a quiescent cut only: a held message raises.
        """
        if self.pending:
            raise RuntimeError(
                f"not a quiescent cut: the checking node holds "
                f"{self.pending} messages"
            )
        return {
            "publications": {
                str(publication): {
                    "arrays": state.arrays.state(),
                    "residents": pairs_to_bytes(*state.randomer.columns()),
                    "released": state.randomer.released,
                    "cn_reported": sorted(state.cn_reported),
                    "interval_closed": state.interval_closed,
                }
                for publication, state in self._publications.items()
            },
            "dead_nodes": sorted(self._dead_nodes),
            "finalised_floor": self._finalised_floor,
            "next_seq": self.next_seq,
            "pairs_processed": self.pairs_processed,
            "dummies_passed": self.dummies_passed,
            "records_removed": self.records_removed,
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (crash recovery)."""
        self._publications = {}
        for key, saved in state["publications"].items():
            randomer = Randomer(
                self.config.randomer_buffer_size, rng=self._rng
            )
            randomer.restore(
                *pairs_from_bytes(saved["residents"]),
                released=saved["released"],
            )
            self._publications[int(key)] = _PublicationState(
                randomer=randomer,
                arrays=LeafArrays.from_state(saved["arrays"]),
                cn_reported=set(saved["cn_reported"]),
                interval_closed=saved["interval_closed"],
            )
        self._dead_nodes = set(state["dead_nodes"])
        self._finalised_floor = state["finalised_floor"]
        self.next_seq = state["next_seq"]
        self.pairs_processed = state["pairs_processed"]
        self.dummies_passed = state["dummies_passed"]
        self.records_removed = state["records_removed"]

    def on_publishing(
        self, message: PublishingMsg
    ) -> list[tuple[str, object]]:
        """The dispatcher's own *publishing* notice: the interval closed.

        Finalisation also waits for the per-computing-node reports, the
        publication-consistency condition of Section 5.3; in degraded
        mode the dead set stands in for the dead nodes' reports.
        """
        state = self._open_state(message)
        if state is None:
            return []
        state.interval_closed = True
        if self._complete(state):
            return self._finalise(message.publication)
        return []

    def _complete(self, state: _PublicationState) -> bool:
        """The consistency condition: the interval closed and every live
        computing node reported."""
        reported = state.cn_reported | self._dead_nodes
        return (
            state.interval_closed
            and len(reported) >= self.config.num_computing_nodes
        )

    def on_cn_publishing(
        self, message: CnPublishing
    ) -> list[tuple[str, object]]:
        """Track per-node *publishing*; finalise when the interval closed
        and every live node reported.

        A report for a finalised publication is a straggler: the dead
        node's NodeDown completed the publication before its report was
        consumed."""
        state = self._open_state(message)
        if state is None:
            return []
        state.cn_reported.add(message.node_id)
        if not self._complete(state):
            return []
        return self._finalise(message.publication)

    def on_node_down(self, message: NodeDown) -> list[tuple[str, object]]:
        """A computing node died: stop waiting for its reports.

        The dead set is global — it applies to the carried publication
        and every later one.  Any open publication whose interval closed
        and whose remaining missing reports are all dead nodes finalises
        immediately.
        """
        self._dead_nodes.add(message.node_id)
        out: list[tuple[str, object]] = []
        for publication in sorted(self._publications):
            if self._complete(self._publications[publication]):
                out.extend(self._finalise(publication))
        return out

    def _finalise(self, publication: int) -> list[tuple[str, object]]:
        """Drain the buffer, ship AL, flush to cloud, release the CNs."""
        start = self._tel.now()
        state = self._publications[publication]
        out, *flushed = self._check_bulk(
            publication, state, *state.randomer.flush()
        )
        # The flush must be enqueued to the cloud *before* the AL reaches
        # the merger: the cloud's FIFO inbox then guarantees every pair is
        # stored (and its metadata cached) before the merger's publication
        # triggers the matching process.  With the opposite order the
        # merger can race ahead on a concurrent runtime and match an
        # incomplete publication.
        out.append(("cloud", BufferFlush(publication, *flushed)))
        out.append(
            ("merger", AlSnapshot(publication, tuple(state.arrays.snapshot())))
        )
        done = DoneMsg(publication)
        out.extend(
            (f"cn-{i}", done)
            for i in range(self.config.num_computing_nodes)
            if i not in self._dead_nodes
        )
        del self._publications[publication]
        self._finalised_floor = max(self._finalised_floor, publication)
        self._tel.observe_stage("publish", publication, start)
        return out
