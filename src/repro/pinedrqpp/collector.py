"""The PINED-RQ++ collector.

The whole parser → checker → enricher → updater → encrypter workflow runs
on the single collector node.

It publishes *synchronously*: at the end of an interval the collector
encrypts the buffered removed records, builds the overflow arrays and ships
the publication before any new record is admitted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cloud.node import MatchingTableCloud
from repro.crypto.cipher import RecordCipher
from repro.index.domain import AttributeDomain
from repro.index.overflow import OverflowArray
from repro.index.perturb import NoisePlan
from repro.index.template import IndexTemplate
from repro.privacy.laplace import LaplaceMechanism
from repro.records.record import EncryptedRecord, Record, make_dummy
from repro.records.schema import Schema

from repro.pinedrqpp.components import (
    Checker,
    Encrypter,
    Enricher,
    Parser,
    Updater,
)


@dataclass(frozen=True)
class StreamPublicationReport:
    """Outcome of one PINED-RQ++ publication."""

    publication: int
    real_records: int
    dummies_sent: int
    records_removed: int
    overflow_capacity: int
    matching_table_size: int
    publish_encrypt_ops: int


class PinedRqPPCollector:
    """The PINED-RQ++ trusted collector (index-template streaming).

    Parameters
    ----------
    schema, domain:
        Relation schema and binned attribute domain.
    cipher:
        Record cipher shared with the client.
    epsilon, delta:
        Per-publication privacy budget and overflow-sizing probability.
    fanout:
        Index branching factor.
    rng:
        Seeded randomness.
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
        self.epsilon = epsilon
        self.delta = delta
        self.fanout = fanout
        self._rng = rng if rng is not None else random.Random()
        self.parser = Parser(schema)
        self.checker = Checker(schema, domain)
        self.enricher = Enricher(rng=self._rng)
        self.updater = Updater(schema, domain)
        self.encrypter = Encrypter(schema, cipher)
        self._publication = -1
        self._template: IndexTemplate | None = None
        self._dummy_queue: list[Record] = []
        self._real_seen = 0
        self._dummies_sent = 0
        self.rejected = 0

    @property
    def publication(self) -> int:
        """Current publication number (-1 before :meth:`start_publication`)."""
        return self._publication

    @property
    def plan(self) -> NoisePlan:
        """Noise plan of the current publication."""
        if self._template is None:
            raise RuntimeError("no active publication")
        return self._template.plan

    def start_publication(self, cloud: MatchingTableCloud) -> None:
        """Begin a new publishing time interval.

        Creates and perturbs the index template, announces the publication
        to the cloud, and prepares the dummy records implied by positive
        noise (to be interleaved with real arrivals).
        """
        self._publication += 1
        self._template = IndexTemplate(
            self.domain,
            fanout=self.fanout,
            epsilon=self.epsilon,
            rng=self._rng,
        )
        self.checker.begin_publication(self._template)
        self.enricher.begin_publication()
        self.updater.begin_publication(self._template)
        self._real_seen = 0
        self._dummies_sent = 0
        self._dummy_queue = []
        for offset, noise in enumerate(self._template.plan.leaf_noise):
            low, high = self.domain.leaf_range(offset)
            for _ in range(max(0, noise)):
                value = low if high <= low else low + self._rng.random() * (
                    high - low
                )
                self._dummy_queue.append(make_dummy(self.schema, value))
        self._rng.shuffle(self._dummy_queue)
        cloud.announce_publication(self._publication)

    def ingest_line(self, line: str, cloud: MatchingTableCloud) -> None:
        """Run one raw line through the full workflow (Figure 4).

        Malformed or out-of-domain lines are dropped and counted in
        :attr:`rejected` rather than aborting the publication.
        """
        try:
            record = self.parser.parse(line)
            self.domain.leaf_offset(record.indexed_value(self.schema))
            line.encode()  # a lone surrogate cannot be serialized
        except ValueError:
            self.rejected += 1
            return
        self.ingest_record(record, cloud)

    def ingest_record(self, record: Record, cloud: MatchingTableCloud) -> None:
        """Workflow from the checker onwards, for an already parsed record."""
        if self._template is None:
            raise RuntimeError("call start_publication first")
        if not record.is_dummy:
            self._real_seen += 1
        if self.checker.check(record):
            return  # buffered at the collector until publishing time
        tag = self.enricher.tag()
        self.updater.update(record, tag)
        cloud.receive_tagged(
            self._publication, tag, self.encrypter.encrypt(record)
        )
        if record.is_dummy:
            self._dummies_sent += 1

    def next_dummy(self) -> Record | None:
        """Pop the next scheduled dummy record, if any remain."""
        if self._dummy_queue:
            return self._dummy_queue.pop()
        return None

    @property
    def pending_dummies(self) -> int:
        """Dummies not yet interleaved into the stream."""
        return len(self._dummy_queue)

    def publish(self, cloud: MatchingTableCloud) -> StreamPublicationReport:
        """Synchronous end-of-interval publication.

        Flushes remaining dummies, sequentially encrypts the removed
        records into overflow arrays, and ships the updated template (now
        true + noise counts), the overflow arrays and the matching table.
        """
        if self._template is None:
            raise RuntimeError("no active publication")
        while self._dummy_queue:
            self.ingest_record(self._dummy_queue.pop(), cloud)

        publication = self._publication
        template = self._template
        bound = LaplaceMechanism(
            1.0 / template.plan.per_level_scale
        ).positive_noise_bound(self.delta)
        publish_encrypts = 0
        removed = self.checker.drain_removed()
        per_leaf_removed: dict[int, list[Record]] = {}
        for record in removed:
            offset = self.domain.leaf_offset(record.indexed_value(self.schema))
            per_leaf_removed.setdefault(offset, []).append(record)

        overflow: dict[int, OverflowArray] = {}
        for offset in range(self.domain.num_leaves):
            array = OverflowArray(offset, capacity=bound)
            for record in per_leaf_removed.get(offset, ())[: array.capacity]:
                array.add_removed(
                    EncryptedRecord(
                        leaf_offset=None,
                        ciphertext=self.encrypter.encrypt(record),
                        publication=publication,
                    )
                )
                publish_encrypts += 1

            def padding(offset=offset):
                nonlocal publish_encrypts
                publish_encrypts += 1
                low, high = self.domain.leaf_range(offset)
                value = low if high <= low else low + self._rng.random() * (
                    high - low
                )
                return EncryptedRecord(
                    leaf_offset=None,
                    ciphertext=self.encrypter.encrypt(
                        make_dummy(self.schema, value)
                    ),
                    publication=publication,
                )

            array.seal(padding, rng=self._rng)
            overflow[offset] = array

        matching_table = dict(self.updater.matching_table)
        cloud.receive_publication(
            publication,
            template.tree,
            {offset: array.ciphertexts for offset, array in overflow.items()},
            matching_table,
        )
        report = StreamPublicationReport(
            publication=publication,
            real_records=self._real_seen,
            dummies_sent=self._dummies_sent,
            records_removed=len(removed),
            overflow_capacity=sum(a.capacity for a in overflow.values()),
            matching_table_size=len(matching_table),
            publish_encrypt_ops=publish_encrypts,
        )
        self._template = None
        return report
