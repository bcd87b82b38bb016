"""The merger (Section 5.3).

Runs independently of the ingestion path — this is what makes FRESQUE's
publication *asynchronous*.  Per publication it receives:

1. the index template (noise plan) at interval start;
2. removed records from the checker, as negative noise is consumed;
3. the final AL snapshot at interval end — the trigger for the merging job:
   combine template noise with AL into the complete secure index, seal the
   removed records into fixed-size overflow arrays (padded with dummies
   encrypted in one batch per publication, randomly ordered), and ship
   everything to the cloud under the publication number.

The checking node sends both the template and the removed records, the
template first, over one FIFO link: a removed record for a publication
without a template is a protocol violation and raises, as an AL does.

Removed records are held as ciphertexts per leaf, and an overflow array
leaves as a tuple of ciphertexts: nothing is built per record or per
padding slot.  Each array is one ``itemgetter`` over the leaf's removed
records and its slice of the padding, its slot order drawn by
:func:`~repro.core.randomer.shuffled_range`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.config import FresqueConfig
from repro.core.messages import (
    AlSnapshot,
    MergedPublication,
    RemovedBatch,
    Routed,
    TemplateMsg,
)
from repro.core.randomer import gather, shuffled_range
from repro.crypto.cipher import RecordCipher, padding_nonce
from repro.index.perturb import NoisePlan
from repro.index.template import merge_plan_and_counts
from repro.records.record import EncryptedRecord
from repro.records.codec import (
    decode_plan,
    encode_plan,
    pairs_from_bytes,
    pairs_to_bytes,
)
from repro.records.serialize import DummyRecordSerializer
from repro.telemetry.context import coalesce


def _encode_removed(leaves, ciphertexts) -> bytes:
    """Removed-record columns as a checkpoint section (no dummy among
    them); ``pairs_from_bytes(data)[:2]`` reads them back."""
    return pairs_to_bytes(leaves, ciphertexts, bytes(len(leaves)))


@dataclass
class _MergeState:
    """Per-publication material accumulated before the merge job."""

    plan: NoisePlan
    #: Leaf offset -> the ciphertexts removed under it, in arrival order.
    removed: dict[int, list[bytes]] = field(default_factory=dict)

    def hold(self, leaves, ciphertexts) -> None:
        removed = self.removed
        for leaf, ciphertext in zip(leaves, ciphertexts):
            removed.setdefault(leaf, []).append(ciphertext)

    def columns(self) -> tuple[list[int], list[bytes]]:
        """Everything held, as a leaf and a ciphertext column (leaf by
        leaf; :meth:`hold` of them rebuilds :attr:`removed`)."""
        removed = self.removed
        return (
            [leaf for leaf, held in removed.items() for _ in held],
            [ciphertext for held in removed.values() for ciphertext in held],
        )


@dataclass(frozen=True)
class MergeReport:
    """What one merge job did (inputs to the cost model)."""

    publication: int
    index_nodes: int
    removed_records: int
    overflow_capacity: int
    padding_encrypts: int


class Merger(Routed):
    """Publishing-task worker: index assembly and overflow arrays.

    Parameters
    ----------
    config:
        Deployment configuration.
    cipher:
        Record cipher, needed to encrypt overflow-array padding dummies.
    rng:
        Seeded randomness for padding values and shuffles.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; times the
        ``merge`` stage per publication.
    """

    ROUTES = {
        TemplateMsg: "on_template",
        RemovedBatch: "on_removed",
        AlSnapshot: "on_al",
    }

    def __init__(
        self,
        config: FresqueConfig,
        cipher: RecordCipher,
        rng: random.Random | None = None,
        telemetry=None,
    ):
        self.config = config
        self.cipher = cipher
        self._rng = rng if rng is not None else random.Random()
        self._dummy_serializer = DummyRecordSerializer(config.schema)
        #: Per leaf, ``(low, width)``: where its padding values are drawn.
        self._leaf_bounds = config.domain.leaf_spans()
        self._states: dict[int, _MergeState] = {}
        self.reports: list[MergeReport] = []
        self._tel = coalesce(telemetry)
        self._padding_counter = self._tel.counter(
            "merger_padding_encrypts_total"
        )
        self._removed_counter = self._tel.counter(
            "merger_removed_records_total"
        )

    def pending_removed(self) -> list[tuple[int, int, EncryptedRecord]]:
        """Removed records held for unfinished publications.

        Query processing must cover them (Section 5.3(c)).  Returns
        ``(publication, leaf offset, encrypted record)`` triples, each
        record built here from its ciphertext.
        """
        return [
            (
                publication,
                leaf,
                EncryptedRecord(leaf, ciphertext, publication=publication),
            )
            for publication, state in self._states.items()
            for leaf, held in state.removed.items()
            for ciphertext in held
        ]

    def removed_in(self, leaves) -> list[bytes]:
        """The ciphertexts of :meth:`pending_removed` under ``leaves``, by
        leaf lookup (the query path; quiescent-only, like
        :meth:`CheckingNode.buffered_in`)."""
        return [
            ciphertext
            for state in self._states.values()
            for leaf in leaves
            for ciphertext in state.removed.get(leaf, ())
        ]

    def on_template(self, message: TemplateMsg) -> list[tuple[str, object]]:
        """Store the publication's template until the AL arrives."""
        self._states[message.publication] = _MergeState(plan=message.plan)
        return []

    def on_removed(self, message: RemovedBatch) -> list[tuple[str, object]]:
        """Hold a run of removed records for their leaves' overflow arrays."""
        state = self._states.get(message.publication)
        if state is None:
            raise KeyError(
                f"removed records of unknown publication {message.publication}"
            )
        state.hold(message.leaves, message.ciphertexts)
        return []

    def snapshot(self) -> dict:
        """Snapshot of per-publication merge material.

        Captures each unfinished publication's template plan and the
        removed records held for its overflow arrays (packed columns as
        ``bytes``, ``records.codec.pairs_to_bytes``).
        """
        return {
            "publications": {
                str(publication): {
                    "plan": encode_plan(state.plan),
                    "removed": _encode_removed(*state.columns()),
                }
                for publication, state in self._states.items()
            },
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (crash recovery)."""
        self._states = {}
        for key, saved in state["publications"].items():
            merge_state = _MergeState(plan=decode_plan(saved["plan"]))
            merge_state.hold(*pairs_from_bytes(saved["removed"])[:2])
            self._states[int(key)] = merge_state

    def on_al(self, message: AlSnapshot) -> list[tuple[str, object]]:
        """The merge job: build the secure index and overflow arrays.

        Leaf by leaf, in offset order, the job draws the padding values
        and the leaf's slot order exactly as sealing one array at a time
        would (a shuffle consumes draws by length only, so the slots can
        be shuffled before any ciphertext exists).  The padding of the
        whole publication is then serialized in one call and encrypted in
        one batch, in padding-counter order — which keeps the IV sequence
        that of one ``encrypt`` call per dummy — and each leaf's array is
        gathered from its removed records and its padding slice.
        """
        start = self._tel.now()
        publication = message.publication
        state = self._states.pop(publication, None)
        if state is None:
            raise KeyError(f"AL for unknown publication {publication}")
        config = self.config
        domain = config.domain
        tree = merge_plan_and_counts(
            domain, state.plan, message.al, fanout=config.fanout
        )

        capacity = config.overflow_capacity
        draw = self._rng.random
        getrandbits = self._rng.getrandbits
        removed_at = state.removed.get
        values: list[float] = []
        #: Per leaf: its removed ciphertexts and its shuffled slots (slot
        #: < len(removed) is a removed record, the rest index the leaf's
        #: padding, which follows the previous leaves' in ``values``).
        layout: list[tuple[list[bytes], list[int]]] = []
        removed_total = 0
        for offset, (low, span) in enumerate(self._leaf_bounds):
            removed = removed_at(offset, [])[:capacity]
            removed_total += len(removed)
            padding = capacity - len(removed)
            if span <= 0:
                values += [low] * padding
            else:
                values += [low + draw() * span for _ in range(padding)]
            layout.append((removed, shuffled_range(capacity, getrandbits)))

        plaintexts = self._dummy_serializer.serialize_many(values)
        padding_encrypts = len(plaintexts)
        if config.deterministic_ivs:
            # Keyed on (publication, padding index): the leaves are padded
            # in a fixed order, so the counter sequence — and with it
            # every padding IV — is identical in every runtime.
            ciphertexts = self.cipher.encrypt_batch_seeded(
                plaintexts,
                [
                    padding_nonce(publication, counter)
                    for counter in range(padding_encrypts)
                ],
            )
        else:
            ciphertexts = self.cipher.encrypt_batch(plaintexts)
        overflow: dict[int, tuple[bytes, ...]] = {}
        end = 0
        for offset, (removed, slots) in enumerate(layout):
            start_padding, end = end, end + capacity - len(removed)
            overflow[offset] = gather(
                slots, removed + ciphertexts[start_padding:end]
            )

        self.reports.append(
            MergeReport(
                publication=publication,
                index_nodes=tree.num_nodes,
                removed_records=removed_total,
                overflow_capacity=capacity * domain.num_leaves,
                padding_encrypts=padding_encrypts,
            )
        )
        self._padding_counter.inc(padding_encrypts)
        self._removed_counter.inc(removed_total)
        self._tel.observe_stage("merge", publication, start)
        return [
            (
                "cloud",
                MergedPublication(
                    publication=publication, tree=tree, overflow=overflow
                ),
            )
        ]
