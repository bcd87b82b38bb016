"""PINED-RQ (Sahin et al.): the batch publisher.

The original scheme buffers all records of a publishing interval at the
collector, then — in one synchronous step — builds the clear index, perturbs
it, materialises dummies and overflow arrays, encrypts everything and ships
the publication to the cloud.  This is the scheme that "incurs congestion as
incoming data rate is high" (Section 1); it serves as the family's reference
semantics and as a baseline in the benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cloud.node import FresqueCloud
from repro.crypto.cipher import RecordCipher
from repro.index.domain import AttributeDomain
from repro.index.overflow import OverflowArray
from repro.index.perturb import draw_noise_plan, perturb_clear_tree
from repro.index.tree import IndexTree
from repro.privacy.laplace import LaplaceMechanism
from repro.records.record import Record, make_dummy
from repro.records.schema import Schema
from repro.records.serialize import serialize_record


@dataclass(frozen=True)
class BatchPublicationReport:
    """What one batch publication did (inputs to the cost model)."""

    publication: int
    real_records: int
    dummies_added: int
    records_removed: int
    overflow_capacity: int
    encrypt_ops: int


class PinedRqCollector:
    """Trusted batch collector of the original PINED-RQ.

    Parameters
    ----------
    schema, domain:
        Relation schema and binned domain of the indexed attribute.
    cipher:
        Record cipher shared with the client.
    epsilon:
        Privacy budget per publication.
    delta:
        Probability with which overflow arrays are large enough (δ).
    fanout:
        Index branching factor.
    rng:
        Seeded randomness for noise, dummy placement and shuffles.
    """

    def __init__(
        self,
        schema: Schema,
        domain: AttributeDomain,
        cipher: RecordCipher,
        epsilon: float = 1.0,
        delta: float = 0.99,
        fanout: int = 16,
        rng: random.Random | None = None,
    ):
        self.schema = schema
        self.domain = domain
        self.cipher = cipher
        self.epsilon = epsilon
        self.delta = delta
        self.fanout = fanout
        self._rng = rng if rng is not None else random.Random()
        self._buffer: list[Record] = []
        self._publication = 0

    @property
    def buffered(self) -> int:
        """Records waiting for the next publication."""
        return len(self._buffer)

    def ingest(self, record: Record) -> None:
        """Buffer one record until the interval ends (the PINED-RQ way)."""
        self._buffer.append(record)

    def _encrypt(self, record: Record) -> bytes:
        return self.cipher.encrypt(serialize_record(record, self.schema))

    def _encrypted_dummy(self, leaf_offset: int) -> bytes:
        low, high = self.domain.leaf_range(leaf_offset)
        value = low if high <= low else low + self._rng.random() * (high - low)
        return self._encrypt(make_dummy(self.schema, value))

    def publish(self, cloud: FresqueCloud) -> BatchPublicationReport:
        """Build, perturb, encrypt and publish the buffered dataset."""
        from repro.records.record import EncryptedRecord

        publication = self._publication
        self._publication += 1
        records = self._buffer
        self._buffer = []
        cloud.announce_publication(publication)

        # Step 1: the clear index.
        per_leaf: list[list[Record]] = [[] for _ in range(self.domain.num_leaves)]
        for record in records:
            offset = self.domain.leaf_offset(record.indexed_value(self.schema))
            per_leaf[offset].append(record)
        tree = IndexTree(self.domain, fanout=self.fanout)
        tree.set_leaf_counts([len(bucket) for bucket in per_leaf])

        # Step 2: perturb every count.
        plan = draw_noise_plan(tree, self.epsilon, rng=self._rng)
        dummies, removals = perturb_clear_tree(tree, plan)
        bound = LaplaceMechanism(1.0 / plan.per_level_scale).positive_noise_bound(
            self.delta
        )

        encrypt_ops = 0
        dummies_added = 0
        removed_total = 0
        overflow: dict[int, OverflowArray] = {}
        for offset, bucket in enumerate(per_leaf):
            # Negative noise: move records into the overflow array.
            array = OverflowArray(offset, capacity=bound)
            to_remove = min(removals[offset], len(bucket), array.capacity)
            for _ in range(to_remove):
                victim = bucket.pop(self._rng.randrange(len(bucket)))
                array.add_removed(
                    EncryptedRecord(
                        leaf_offset=None,
                        ciphertext=self._encrypt(victim),
                        publication=publication,
                    )
                )
                encrypt_ops += 1
                removed_total += 1

            def padding(offset=offset):
                nonlocal encrypt_ops
                encrypt_ops += 1
                return EncryptedRecord(
                    leaf_offset=None,
                    ciphertext=self._encrypted_dummy(offset),
                    publication=publication,
                )

            array.seal(padding, rng=self._rng)
            overflow[offset] = array

            # Positive noise: link dummy records to the leaf.
            low, high = self.domain.leaf_range(offset)
            for _ in range(dummies[offset]):
                value = low if high <= low else low + self._rng.random() * (
                    high - low
                )
                bucket.append(make_dummy(self.schema, value))
                dummies_added += 1

        # Step 3: encrypt the (modified) dataset and publish everything.
        for offset, bucket in enumerate(per_leaf):
            cloud.receive_pairs(
                publication,
                [offset] * len(bucket),
                [self._encrypt(record) for record in bucket],
            )
            encrypt_ops += len(bucket)
        cloud.receive_publication(
            publication,
            tree,
            {offset: array.ciphertexts for offset, array in overflow.items()},
        )
        return BatchPublicationReport(
            publication=publication,
            real_records=len(records),
            dummies_added=dummies_added,
            records_removed=removed_total,
            overflow_capacity=sum(a.capacity for a in overflow.values()),
            encrypt_ops=encrypt_ops,
        )
