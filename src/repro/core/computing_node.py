"""A computing node (Section 5.3).

Performs the heavy per-record work in parallel with its ``k - 1`` siblings:
parse the raw line (or render a dispatcher dummy from its indexed value),
compute the O(1) leaf offset, encrypt, and ship the
``<leaf offset, e-record>`` pair to the checking node.  While waiting for
the checking node's *done* message at a publication boundary, freshly
arriving records of the next publication are still processed but buffered
locally, so no ingest capacity is lost during publishing.
"""

from __future__ import annotations

from repro.core.config import FresqueConfig
from repro.core.messages import (
    CnPublishing,
    DoneMsg,
    PairBatch,
    PublishingMsg,
    RawBatch,
    Routed,
)
from repro.crypto.cipher import RecordCipher, record_nonce
from repro.records.serialize import DummyRecordSerializer, encode_batch
from repro.telemetry.context import coalesce


class ComputingNode(Routed):
    """One parser/encrypter worker.

    Parameters
    ----------
    node_id:
        Index of this node (0-based; its address is ``cn-<node_id>``).
    config:
        Deployment configuration.
    cipher:
        Record cipher shared with the client.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; times the
        ``parse`` and ``encrypt`` stages per record.
    """

    ROUTES = {
        RawBatch: "on_raw_batch",
        PublishingMsg: "on_publishing",
        DoneMsg: "on_done",
    }

    def __init__(
        self,
        node_id: int,
        config: FresqueConfig,
        cipher: RecordCipher,
        telemetry=None,
    ):
        self.node_id = node_id
        self.config = config
        self.cipher = cipher
        self._dummy_serializer = DummyRecordSerializer(config.schema)
        self.parsed = 0
        self.encrypted = 0
        self.bytes_out = 0
        self.rejected = 0
        self._tel = coalesce(telemetry)
        node_label = f"cn-{node_id}"
        self._rejected_counter = self._tel.counter(
            "cn_rejected_total", node=node_label
        )
        self._bytes_counter = self._tel.counter(
            "cn_bytes_total", node=node_label
        )
        self._held_gauge = self._tel.gauge("cn_held_pairs", node=node_label)
        self._waiting_done = False
        #: The publication whose *done* is awaited (``None`` otherwise).
        self._publishing: int | None = None
        # While waiting for *done*, events are held in arrival order:
        # ("batch", PairBatch) entries and ("publishing", publication)
        # markers.  Order matters — a publishing acknowledgement must
        # not overtake the pairs of its own publication, or the checking
        # node would finalise before receiving them (the Section 5.3
        # consistency condition).  The one exception is a batch *of the
        # awaited publication itself* (a crash redispatch absorbed from
        # a dead sibling): its acknowledgement is already out,
        # finalisation is waiting on exactly these pairs, and holding
        # them would deadlock — they ship immediately.
        self._held: list[tuple[str, object]] = []

    @property
    def waiting_for_done(self) -> bool:
        """Whether the node is between *publishing* and *done*."""
        return self._waiting_done

    @property
    def held_pairs(self) -> int:
        """Pairs buffered locally while waiting for *done*."""
        return sum(
            len(payload) for kind, payload in self._held if kind == "batch"
        )

    def on_raw_batch(self, message: RawBatch) -> list[tuple[str, object]]:
        """Process one dispatched batch into one :class:`PairBatch`.

        The batched hot path: the batch is encoded a column at a time
        (:func:`~repro.records.serialize.encode_batch`), then encrypted
        through the cipher's multi-block fast path — one ``encrypt_batch``
        call instead of one cipher call per record.  A malformed,
        out-of-domain or unencodable item is dropped (counted in
        :attr:`rejected`) without poisoning the rest of its batch — one
        bad data source must not take down a computing node or the
        publication — and, because a dropped item never reaches the
        cipher, without perturbing the IV sequence of the surviving
        records.
        """
        tel = self._tel
        publication = message.publication
        start = tel.now()
        # Columns, never one object per record.  ``indices`` are the
        # survivors' positions in the batch; with its first-item ordinal
        # they identify each record pipeline-wide, which keys its
        # deterministic IV.  Rejected items never reach the cipher, so
        # they do not perturb the survivors' IVs — and as the ordinal is
        # global, neither does the batch layout (batch-size invariance).
        leaves, plaintexts, dummies, indices, parsed, rejected = encode_batch(
            message.items,
            self.config.schema,
            self.config.domain.leaf_offset,
            self._dummy_serializer,
        )
        self.parsed += parsed
        if rejected:
            self.rejected += rejected
            self._rejected_counter.inc(rejected)
        tel.observe_stage("parse", publication, start)
        if not leaves:
            # A stamped batch still needs its (empty) pair batch: the
            # checking node applies batches in sequence order, and an
            # all-rejected batch must not stall it.
            if message.seq < 0:
                return []
            return self._ship(PairBatch(publication, seq=message.seq))
        start = tel.now()
        if self.config.deterministic_ivs and message.ordinal >= 0:
            ordinal = message.ordinal
            ciphertexts = self.cipher.encrypt_batch_seeded(
                plaintexts, [record_nonce(ordinal + index) for index in indices]
            )
        else:
            ciphertexts = self.cipher.encrypt_batch(plaintexts)
        tel.observe_stage("encrypt", publication, start)
        bytes_out = sum(map(len, ciphertexts))
        self.encrypted += len(leaves)
        self.bytes_out += bytes_out
        self._bytes_counter.inc(bytes_out)
        return self._ship(
            PairBatch(
                publication,
                tuple(leaves),
                tuple(ciphertexts),
                dummies,
                seq=message.seq,
            )
        )

    def _ship(self, batch: PairBatch) -> list[tuple[str, object]]:
        """Forward a pair batch, or hold it while waiting for *done*."""
        if self._waiting_done and batch.publication != self._publishing:
            self._held.append(("batch", batch))
            if self._tel.enabled:
                self._held_gauge.set(self.held_pairs)
            return []
        return [("checking", batch)]

    def on_publishing(
        self, message: PublishingMsg
    ) -> list[tuple[str, object]]:
        """The dispatcher closed a publication: tell the checking node.

        If the node is still waiting for a previous publication's *done*,
        the acknowledgement is queued behind the held pairs so the
        checking node never finalises a publication whose pairs this node
        has not yet forwarded.
        """
        publication = message.publication
        if self._waiting_done:
            self._held.append(("publishing", publication))
            return []
        self._waiting_done = True
        self._publishing = publication
        return [("checking", CnPublishing(publication, self.node_id))]

    def on_done(self, message: DoneMsg) -> list[tuple[str, object]]:
        """The checking node finished publishing: replay held events.

        Pairs flush in order; the first queued *publishing* marker re-arms
        the wait (back-to-back publications pipeline correctly).

        A done for an *older* publication than the one currently waited
        on is a straggler (a duplicated frame under an injected fault
        plan) — releasing the current hold on it would leak the next
        publication's pairs past the publishing barrier.
        """
        if (
            self._waiting_done
            and self._publishing is not None
            and message.publication < self._publishing
        ):
            return []
        self._waiting_done = False
        self._publishing = None
        out: list[tuple[str, object]] = []
        while self._held:
            kind, payload = self._held.pop(0)
            if kind == "batch":
                out.append(("checking", payload))
                continue
            # Re-armed for ``payload``: its own batches held behind the
            # marker (a crash redispatch that arrived while an earlier
            # done was awaited) ship now, as :meth:`_ship` ships them on
            # arrival — its finalisation waits on exactly these pairs.
            still_held = []
            for entry in self._held:
                if entry[0] == "batch" and entry[1].publication == payload:
                    out.append(("checking", entry[1]))
                else:
                    still_held.append(entry)
            self._held = still_held
            out.append(("checking", CnPublishing(payload, self.node_id)))
            self._waiting_done = True
            self._publishing = payload
            break
        if self._tel.enabled:
            self._held_gauge.set(self.held_pairs)
        return out
