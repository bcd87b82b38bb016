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

At a publication boundary — once *publishing* messages from **all**
computing nodes arrived — the node drains the randomer through the checker,
ships the final AL to the merger, publishes the shuffled residue to the
cloud and sends *done* back to the computing nodes.

Because publishing is asynchronous, state is kept per publication: pairs of
publication ``n + 1`` may arrive while ``n`` is still being finalised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from operator import add

from repro.core.config import FresqueConfig
from repro.core.membership import stale_for
from repro.core.messages import (
    AlSnapshot,
    AnnouncePublication,
    BufferFlush,
    CnPublishing,
    CreditGrant,
    DoneMsg,
    MembershipMsg,
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
from repro.records.codec import decode_pairs, encode_pairs
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


@dataclass
class _PublicationState:
    """Per-publication randomer + arrays + boundary bookkeeping."""

    randomer: Randomer
    arrays: LeafArrays
    cn_reported: set[int] = field(default_factory=set)
    closed: bool = False
    #: The dispatcher's own *publishing* notice arrived — needed to
    #: finalise a publication whose only missing reports are dead nodes.
    interval_closed: bool = False
    #: Exact node set this publication waits on (``PublishingMsg.nodes``
    #: under elastic membership); ``None`` falls back to counting against
    #: ``config.num_computing_nodes`` (pre-membership wire compatibility).
    expected: set[int] | None = None
    #: Nodes this publication will never hear from — seeded with the dead
    #: set at creation and only ever grown.  Monotone per publication: a
    #: node that *rejoins* later must not resurrect the wait, because its
    #: new incarnation never saw this publication's interval.
    absolved: set[int] = field(default_factory=set)


class CheckingNode(Routed):
    """The sequential trusted node hosting randomer, checker and updater.

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
        MembershipMsg: "on_membership",
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
        #: Pairs that beat their publication's announcement here, as
        #: ``(leaves, ciphertexts, dummies)`` columns in arrival order.
        self._early_pairs: dict[int, tuple[tuple, tuple, bytes]] = {}
        self._early_cn: dict[int, list[CnPublishing]] = {}
        self._dead_nodes: set[int] = set()
        # Elastic membership (docs/PROTOCOL.md): per-node join-epoch
        # floors.  A PairBatch stamped with an epoch *below* its
        # producer's floor is output of a crashed incarnation whose
        # records were already redispatched — it is discarded, not
        # processed twice.  ``_membership_epoch`` versions the full-state
        # MembershipMsg applies (older snapshots are ignored).
        self._node_epochs: dict[int, int] = {}
        self._membership_epoch = -1
        # Highest finalised publication: a CnPublishing at or below it
        # is a straggler (an absolved-but-live node whose report lost
        # the race against finalisation), not an early arrival to buffer.
        self._finalised_floor = -1
        self.stale_pairs_discarded = 0
        self.stale_batches_discarded = 0
        self.pairs_processed = 0
        self.dummies_passed = 0
        self.records_removed = 0
        self._tel = coalesce(telemetry)
        self._removed_counter = self._tel.counter("checking_removed_total")
        self._dummies_counter = self._tel.counter("checking_dummies_total")
        self._occupancy_gauge = self._tel.gauge("randomer_occupancy")
        # Credit-based backpressure (docs/BATCHING.md): grant the
        # records of every processed PairBatch back to the dispatcher.
        self._grant_credits = config.credit_window > 0
        self._credits_counter = self._tel.counter("checking_credits_total")

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

    def buffered_in(self, leaves) -> list[EncryptedRecord]:
        """Encrypted records of the randomer residents under ``leaves``.

        What a query reads of :meth:`buffered_pairs` — the residents of
        every open publication whose leaf offset is in ``leaves`` — by
        leaf lookup instead of a scan, one record built per resident
        returned.  It reads the randomers' live leaf views, so unlike
        :meth:`buffered_pairs` it must not run beside the thread that
        handles this node's messages.
        """
        return [
            EncryptedRecord(leaf, ciphertext, publication=publication)
            for publication, state in self._publications.items()
            for leaf, ciphertext in state.randomer.ciphertexts_in(leaves)
        ]

    def on_new_publication(
        self, message: NewPublication
    ) -> list[tuple[str, object]]:
        """Initialise AL/ALN, forward the template and announce the PN."""
        state = _PublicationState(
            randomer=Randomer(self.config.randomer_buffer_size, rng=self._rng),
            arrays=LeafArrays(message.plan.leaf_noise),
            absolved=set(self._dead_nodes),
        )
        self._publications[message.publication] = state
        out: list[tuple[str, object]] = [
            ("merger", TemplateMsg(message.publication, message.plan)),
            ("cloud", AnnouncePublication(message.publication)),
        ]
        # Replay anything that raced ahead of this announcement (possible
        # where channels are per-sender).  Early batches were buffered
        # flat, in arrival order, after admission and the credit grant,
        # so only the insert → check → ToCloudBatch step is left to run.
        early_pairs = self._early_pairs.pop(message.publication, None)
        if early_pairs:
            out.extend(
                self._buffer_and_check(message.publication, state, *early_pairs)
            )
        for early in self._early_cn.pop(message.publication, ()):
            out.extend(self.on_cn_publishing(early))
        return out

    def _admit_epoch(self, message) -> bool:
        """Whether ``message`` passes the membership-epoch staleness check.

        Staleness is keyed by *producer*: a batch whose epoch stamp is
        below its producing node's join-epoch floor was emitted by that
        node's previous (crashed) incarnation, and its records are
        already covered by the crash redispatch.  Unstamped batches
        (``epoch`` or ``node`` negative) always pass.
        """
        if not stale_for(self._node_epochs, message):
            return True
        self.stale_batches_discarded += 1
        self.stale_pairs_discarded += len(message)
        return False

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
        if not state.closed:
            # (Pairs arriving after the flush — possible only if a
            # computing node mis-ordered its publishing message — bypass
            # the buffer.)
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
        """Grant the batch's credits, then buffer and check it
        (:meth:`_buffer_and_check`) — or hold it, if it beat its
        publication's announcement here."""
        publication = message.publication
        admitted = self._admit_epoch(message)
        grant: list[tuple[str, object]] = []
        if self._grant_credits and message.leaves:
            # Grant on receipt: the batch reached the trusted node, so
            # its records no longer count against the dispatcher's
            # credit window — even while they sit in the randomer.  Stale
            # batches grant too: their records were charged against the
            # window by the crashed incarnation's dispatch.
            self._credits_counter.inc(len(message))
            grant.append(
                ("dispatcher", CreditGrant(publication, len(message)))
            )
        if not admitted:
            # Output of a crashed incarnation — the redispatch already
            # re-covers these records; only the credits matter.
            return grant
        arrived = (message.leaves, message.ciphertexts, message.dummies)
        state = self._publications.get(publication)
        if state is None:
            held = self._early_pairs.get(publication, ((), (), b""))
            self._early_pairs[publication] = tuple(map(add, held, arrived))
            return grant
        return grant + self._buffer_and_check(publication, state, *arrived)

    def snapshot(self) -> dict:
        """JSON-able snapshot of per-publication progress.

        Captures, per open publication, the AL/ALN arrays, the randomer's
        resident pairs and the boundary bookkeeping, plus the early
        buffers and the dead set — everything a restarted checking node
        needs to continue mid-publication without reprocessing the
        records already released downstream.
        """
        return {
            "publications": {
                str(publication): {
                    "arrays": state.arrays.state(),
                    "residents": encode_pairs(*state.randomer.columns()),
                    "released": state.randomer.released,
                    "cn_reported": sorted(state.cn_reported),
                    "closed": state.closed,
                    "interval_closed": state.interval_closed,
                    "expected": (
                        None
                        if state.expected is None
                        else sorted(state.expected)
                    ),
                    "absolved": sorted(state.absolved),
                }
                for publication, state in self._publications.items()
            },
            "early_pairs": {
                str(publication): encode_pairs(*columns)
                for publication, columns in self._early_pairs.items()
            },
            "early_cn": {
                str(publication): [
                    [message.publication, message.node_id]
                    for message in messages
                ]
                for publication, messages in self._early_cn.items()
            },
            "dead_nodes": sorted(self._dead_nodes),
            "node_epochs": {
                str(node): epoch
                for node, epoch in sorted(self._node_epochs.items())
            },
            "membership_epoch": self._membership_epoch,
            "finalised_floor": self._finalised_floor,
            "stale_pairs_discarded": self.stale_pairs_discarded,
            "stale_batches_discarded": self.stale_batches_discarded,
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
                *decode_pairs(saved["residents"]), released=saved["released"]
            )
            expected = saved.get("expected")
            self._publications[int(key)] = _PublicationState(
                randomer=randomer,
                arrays=LeafArrays.from_state(saved["arrays"]),
                cn_reported=set(saved["cn_reported"]),
                closed=saved["closed"],
                interval_closed=saved["interval_closed"],
                expected=None if expected is None else set(expected),
                absolved=set(saved.get("absolved", ())),
            )
        self._early_pairs = {
            int(key): decode_pairs(packed)
            for key, packed in state["early_pairs"].items()
        }
        self._early_cn = {
            int(key): [
                CnPublishing(publication, node_id)
                for publication, node_id in messages
            ]
            for key, messages in state["early_cn"].items()
        }
        self._dead_nodes = set(state["dead_nodes"])
        self._node_epochs = {
            int(node): epoch
            for node, epoch in state.get("node_epochs", {}).items()
        }
        self._membership_epoch = state.get("membership_epoch", -1)
        self._finalised_floor = state.get("finalised_floor", -1)
        self.stale_pairs_discarded = state.get("stale_pairs_discarded", 0)
        self.stale_batches_discarded = state.get("stale_batches_discarded", 0)
        self.pairs_processed = state["pairs_processed"]
        self.dummies_passed = state["dummies_passed"]
        self.records_removed = state["records_removed"]

    def on_publishing(
        self, message: PublishingMsg
    ) -> list[tuple[str, object]]:
        """The dispatcher's own *publishing* notice.

        With every node live this is informational only — finalisation
        waits for the per-computing-node messages, which is the
        publication-consistency condition of Section 5.3.  In degraded
        mode it marks the interval closed, which (together with the
        dead set) can itself complete the publication.

        A non-empty ``nodes`` tuple pins this publication's *expected*
        report set — the exact participants the dispatcher broadcast to
        — so elastic fleets finalise against the true membership, not a
        static count.
        """
        state = self._publications.get(message.publication)
        if state is None or state.closed:
            return []
        if message.nodes:
            state.expected = set(message.nodes)
        state.interval_closed = True
        if self._complete(state):
            return self._finalise(message.publication)
        return []

    def _complete(self, state: _PublicationState) -> bool:
        """The relaxed consistency condition: every *expected* computing
        node reported, and the interval is known to have ended (any
        ``CnPublishing`` implies it; a dead node's report is replaced by
        the dispatcher's own *publishing* notice).  With an explicit
        expected set (elastic membership) completion is exact; otherwise
        it falls back to counting against the configured fleet size."""
        if not (state.cn_reported or state.interval_closed):
            return False
        absolved = state.absolved | self._dead_nodes
        if state.expected is not None:
            return state.expected <= (state.cn_reported | absolved)
        reported = state.cn_reported | {
            i
            for i in absolved
            if 0 <= i < self.config.num_computing_nodes
        }
        return len(reported) >= self.config.num_computing_nodes

    def on_membership(
        self, message: MembershipMsg
    ) -> list[tuple[str, object]]:
        """Apply a full-state membership snapshot from the dispatcher.

        Snapshots are versioned by epoch and apply monotonically: an
        older (reordered) snapshot is ignored.  Applying one raises the
        join-epoch floors (arming the stale-batch discard for rejoined
        nodes), absolves the currently-down nodes in every open
        publication, and replaces the global dead set — a rejoined node
        leaves it, but stays absolved for publications opened before its
        rejoin (its new incarnation never saw their intervals).
        """
        if message.epoch <= self._membership_epoch:
            return []
        self._membership_epoch = message.epoch
        for node, epoch in message.joined:
            if epoch > self._node_epochs.get(node, 0):
                self._node_epochs[node] = epoch
        down = set(message.down)
        for state in self._publications.values():
            state.absolved |= down
        self._dead_nodes = down
        out: list[tuple[str, object]] = []
        for publication in sorted(self._publications):
            state = self._publications[publication]
            if not state.closed and self._complete(state):
                out.extend(self._finalise(publication))
        return out

    def on_cn_publishing(
        self, message: CnPublishing
    ) -> list[tuple[str, object]]:
        """Track per-node *publishing*; finalise when all nodes reported."""
        state = self._publications.get(message.publication)
        if state is None:
            if message.publication <= self._finalised_floor:
                # Straggler: absolution completed the publication before
                # this (live, absolved) node's report was consumed.
                return []
            self._early_cn.setdefault(message.publication, []).append(message)
            return []
        state.cn_reported.add(message.node_id)
        if state.closed or not self._complete(state):
            return []
        return self._finalise(message.publication)

    def on_node_down(self, message: NodeDown) -> list[tuple[str, object]]:
        """A computing node died: stop waiting for its reports.

        The dead set is global — it applies to the carried publication
        and every later one.  Any open publication whose remaining
        missing reports are all dead nodes finalises immediately.
        """
        self._dead_nodes.add(message.node_id)
        out: list[tuple[str, object]] = []
        for publication in sorted(self._publications):
            state = self._publications[publication]
            if not state.closed and self._complete(state):
                out.extend(self._finalise(publication))
        return out

    def _finalise(self, publication: int) -> list[tuple[str, object]]:
        """Drain the buffer, ship AL, flush to cloud, release the CNs."""
        start = self._tel.now()
        state = self._publications[publication]
        state.closed = True
        out, *flushed = self._check_bulk(
            publication, state, *state.randomer.flush()
        )
        # The flush must be enqueued to the cloud *before* the AL reaches
        # the merger: the cloud's FIFO inbox then guarantees every pair is
        # stored (and its metadata cached) before the merger's publication
        # triggers the matching process.  With the opposite order the
        # merger can race ahead under the threaded runtime and match an
        # incomplete publication.
        out.append(("cloud", BufferFlush(publication, *flushed)))
        out.append(
            ("merger", AlSnapshot(publication, tuple(state.arrays.snapshot())))
        )
        done = DoneMsg(publication)
        if state.expected is not None:
            # ``expected`` is exactly the set the dispatcher broadcast
            # *publishing* to, so every live member holds pairs against
            # this DoneMsg and must be released — absolution only
            # waives a node's report, it does not mean the node is
            # absent (a rejoined node stays absolved for publications
            # opened before its rejoin yet still entered this one's
            # publishing window).  Withholding the done would leave it
            # holding every later publication's output forever.
            recipients = sorted(state.expected - self._dead_nodes)
        else:
            recipients = [
                i
                for i in range(self.config.num_computing_nodes)
                if i not in self._dead_nodes
            ]
        out.extend((f"cn-{i}", done) for i in recipients)
        del self._publications[publication]
        self._finalised_floor = max(self._finalised_floor, publication)
        self._tel.observe_stage("publish", publication, start)
        return out
