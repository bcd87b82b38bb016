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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.config import FresqueConfig
from repro.core.messages import (
    AlSnapshot,
    MergedPublication,
    RemovedRecord,
    Routed,
    TemplateMsg,
)
from repro.crypto.cipher import RecordCipher, padding_nonce
from repro.index.overflow import OverflowArray
from repro.index.perturb import NoisePlan
from repro.index.template import IndexTemplate, merge_template_and_counts
from repro.records.record import EncryptedRecord
from repro.records.codec import (
    decode_encrypted,
    decode_plan,
    encode_encrypted,
    encode_plan,
)
from repro.records.serialize import DummyRecordSerializer
from repro.telemetry.context import coalesce


@dataclass
class _MergeState:
    """Per-publication material accumulated before the merge job."""

    plan: NoisePlan
    removed: dict[int, list[EncryptedRecord]] = field(default_factory=dict)


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
        RemovedRecord: "on_removed",
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
        self._early_removed: dict[int, list[RemovedRecord]] = {}
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
        ``(publication, leaf offset, encrypted record)`` triples.
        """
        held = []
        for publication, state in self._states.items():
            for leaf_offset, records in state.removed.items():
                for record in records:
                    held.append((publication, leaf_offset, record))
        return held

    def removed_in(self, leaves) -> list[EncryptedRecord]:
        """The records of :meth:`pending_removed` under ``leaves``, by
        leaf lookup (the query path; quiescent-only, like
        :meth:`CheckingNode.buffered_in`)."""
        held: list[EncryptedRecord] = []
        for state in self._states.values():
            removed_at = state.removed.get
            for leaf in leaves:
                held.extend(removed_at(leaf, ()))
        return held

    def on_template(self, message: TemplateMsg) -> list[tuple[str, object]]:
        """Store the publication's template until the AL arrives."""
        self._states[message.publication] = _MergeState(plan=message.plan)
        for early in self._early_removed.pop(message.publication, ()):
            self.on_removed(early)
        return []

    def on_removed(self, message: RemovedRecord) -> list[tuple[str, object]]:
        """Buffer one removed record for its leaf's overflow array."""
        state = self._states.get(message.publication)
        if state is None:
            self._early_removed.setdefault(message.publication, []).append(
                message
            )
            return []
        state.removed.setdefault(message.leaf_offset, []).append(
            message.encrypted
        )
        return []

    def snapshot(self) -> dict:
        """JSON-able snapshot of per-publication merge material.

        Captures each unfinished publication's template plan and the
        removed records buffered for its overflow arrays, plus the
        early-arrival buffer.
        """

        def _encode_removed(message: RemovedRecord) -> dict:
            return {
                "leaf": message.leaf_offset,
                "enc": encode_encrypted(message.encrypted),
            }

        return {
            "publications": {
                str(publication): {
                    "plan": encode_plan(state.plan),
                    "removed": {
                        str(leaf): [
                            encode_encrypted(record) for record in records
                        ]
                        for leaf, records in state.removed.items()
                    },
                }
                for publication, state in self._states.items()
            },
            "early_removed": {
                str(publication): [
                    _encode_removed(message) for message in messages
                ]
                for publication, messages in self._early_removed.items()
            },
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (crash recovery)."""
        self._states = {}
        for key, saved in state["publications"].items():
            merge_state = _MergeState(plan=decode_plan(saved["plan"]))
            merge_state.removed = {
                int(leaf): [
                    decode_encrypted(payload) for payload in records
                ]
                for leaf, records in saved["removed"].items()
            }
            self._states[int(key)] = merge_state
        self._early_removed = {
            int(key): [
                RemovedRecord(
                    int(key),
                    payload["leaf"],
                    decode_encrypted(payload["enc"]),
                )
                for payload in messages
            ]
            for key, messages in state["early_removed"].items()
        }

    def on_al(self, message: AlSnapshot) -> list[tuple[str, object]]:
        """The merge job: build the secure index and overflow arrays.

        The padding of the whole publication is encrypted in one batch.
        Leaf by leaf, in offset order, the job draws the padding values
        and the leaf's shuffle exactly as sealing one array at a time
        would (``random.shuffle`` consumes draws by list length only, so
        the slots can be shuffled before any ciphertext exists); the
        plaintexts collect in padding-counter order, which keeps the IV
        sequence that of one ``encrypt`` call per dummy.
        """
        start = self._tel.now()
        publication = message.publication
        state = self._states.pop(publication, None)
        if state is None:
            raise KeyError(f"AL for unknown publication {publication}")
        template = IndexTemplate(
            self.config.domain, fanout=self.config.fanout, plan=state.plan
        )
        tree = merge_template_and_counts(template, list(message.al))

        capacity = self.config.overflow_capacity
        domain = self.config.domain
        serialize = self._dummy_serializer.serialize
        rng = self._rng
        plaintexts: list[bytes] = []
        #: Per leaf: its removed records, its first padding counter, and
        #: the shuffled slots (slot < len(removed) is a removed record,
        #: the rest count on from the first padding counter).
        layout: list[tuple[list[EncryptedRecord], int, list[int]]] = []
        removed_total = 0
        for offset in range(domain.num_leaves):
            removed = state.removed.get(offset, ())[:capacity]
            removed_total += len(removed)
            first_padding = len(plaintexts)
            low, high = domain.leaf_range(offset)
            for _ in range(capacity - len(removed)):
                value = (
                    low if high <= low else low + rng.random() * (high - low)
                )
                plaintexts.append(serialize(value))
            slots = list(range(capacity))
            rng.shuffle(slots)
            layout.append((removed, first_padding, slots))

        padding_encrypts = len(plaintexts)
        if self.config.deterministic_ivs:
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
        padding = [
            EncryptedRecord(
                leaf_offset=None, ciphertext=ciphertext, publication=publication
            )
            for ciphertext in ciphertexts
        ]
        overflow: dict[int, OverflowArray] = {}
        for offset, (removed, first_padding, slots) in enumerate(layout):
            real = len(removed)
            shift = first_padding - real
            overflow[offset] = OverflowArray.sealed(
                offset,
                capacity,
                [
                    removed[slot] if slot < real else padding[slot + shift]
                    for slot in slots
                ],
                real_count=real,
            )

        self.reports.append(
            MergeReport(
                publication=publication,
                index_nodes=tree.num_nodes,
                removed_records=removed_total,
                overflow_capacity=capacity * self.config.domain.num_leaves,
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
