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

Removed records are held as ciphertexts per leaf, and an overflow array
leaves as a tuple of ciphertexts: nothing is built per record or per
padding slot.
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
        self._states: dict[int, _MergeState] = {}
        #: Removed records that beat their publication's template here,
        #: as ``(leaves, ciphertexts)`` columns in arrival order.
        self._early_removed: dict[int, tuple[tuple, tuple]] = {}
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
        state = _MergeState(plan=message.plan)
        self._states[message.publication] = state
        state.hold(*self._early_removed.pop(message.publication, ((), ())))
        return []

    def on_removed(self, message: RemovedBatch) -> list[tuple[str, object]]:
        """Hold a run of removed records for their leaves' overflow arrays."""
        state = self._states.get(message.publication)
        if state is None:
            leaves, ciphertexts = self._early_removed.get(
                message.publication, ((), ())
            )
            self._early_removed[message.publication] = (
                leaves + message.leaves,
                ciphertexts + message.ciphertexts,
            )
            return []
        state.hold(message.leaves, message.ciphertexts)
        return []

    def snapshot(self) -> dict:
        """Snapshot of per-publication merge material.

        Captures each unfinished publication's template plan and the
        removed records held for its overflow arrays (packed columns as
        ``bytes``, ``records.codec.pairs_to_bytes``), plus the
        early-arrival buffer.
        """
        return {
            "publications": {
                str(publication): {
                    "plan": encode_plan(state.plan),
                    "removed": _encode_removed(*state.columns()),
                }
                for publication, state in self._states.items()
            },
            "early_removed": {
                str(publication): _encode_removed(*columns)
                for publication, columns in self._early_removed.items()
            },
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (crash recovery)."""
        self._states = {}
        for key, saved in state["publications"].items():
            merge_state = _MergeState(plan=decode_plan(saved["plan"]))
            merge_state.hold(*pairs_from_bytes(saved["removed"])[:2])
            self._states[int(key)] = merge_state
        self._early_removed = {
            int(key): pairs_from_bytes(packed)[:2]
            for key, packed in state["early_removed"].items()
        }

    def on_al(self, message: AlSnapshot) -> list[tuple[str, object]]:
        """The merge job: build the secure index and overflow arrays.

        Leaf by leaf, in offset order, the job draws the padding values
        and the leaf's shuffle exactly as sealing one array at a time
        would (``random.shuffle`` consumes draws by list length only, so
        the slots can be shuffled before any ciphertext exists).  The
        padding of the whole publication is then serialized in one call
        and encrypted in one batch, in padding-counter order — which keeps
        the IV sequence that of one ``encrypt`` call per dummy — and each
        leaf's array is filled from the shuffled slots.
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
        shuffle = self._rng.shuffle
        removed_at = state.removed.get
        values: list[float] = []
        #: Per leaf: its removed ciphertexts, its first padding counter,
        #: and the shuffled slots (slot < len(removed) is a removed
        #: record, the rest count on from the first padding counter).
        layout: list[tuple[list[bytes], int, list[int]]] = []
        removed_total = 0
        for offset in range(domain.num_leaves):
            removed = removed_at(offset, [])[:capacity]
            removed_total += len(removed)
            first_padding = len(values)
            low, high = domain.leaf_range(offset)
            padding = capacity - len(removed)
            if high <= low:
                values += [low] * padding
            else:
                span = high - low
                values += [low + draw() * span for _ in range(padding)]
            slots = list(range(capacity))
            shuffle(slots)
            layout.append((removed, first_padding, slots))

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
        for offset, (removed, first_padding, slots) in enumerate(layout):
            real = len(removed)
            shift = first_padding - real
            overflow[offset] = tuple(
                [
                    removed[slot] if slot < real else ciphertexts[slot + shift]
                    for slot in slots
                ]
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
