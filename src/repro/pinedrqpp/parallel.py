"""Parallel PINED-RQ++ as message-passing components (Figure 5).

The paper's parallel variant keeps the parser and checker *sequential* on
the front node — both touch the shared index template — and distributes
the enricher/encrypter over ``k`` worker nodes.  Publication stays
synchronous: the front node stops admitting records, waits for every
worker to flush, performs the publishing tasks (removed-record encryption,
overflow arrays, matching table) itself, and only then opens the next
publication.

Functionally equivalent to
:class:`~repro.pinedrqpp.collector.PinedRqPPCollector`; this executable
form exists so the *architecture* (who does what, in which order) can be
tested and contrasted with FRESQUE's component graph.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.cloud.node import MatchingTableCloud
from repro.crypto.cipher import RecordCipher
from repro.index.domain import AttributeDomain
from repro.index.overflow import OverflowArray
from repro.index.template import IndexTemplate
from repro.pinedrqpp.components import Encrypter, Enricher, Parser
from repro.privacy.laplace import LaplaceMechanism
from repro.records.record import EncryptedRecord, Record, make_dummy
from repro.records.schema import Schema


@dataclass(frozen=True)
class WorkerTask:
    """Front node → worker: a checked record to enrich and encrypt."""

    publication: int
    record: Record
    leaf_offset: int


@dataclass(frozen=True)
class WorkerOutput:
    """Worker → front node: tag + ciphertext, ready for the cloud."""

    publication: int
    tag: int
    leaf_offset: int
    ciphertext: bytes
    dummy: bool


class FrontNode:
    """Sequential parser + checker + template owner.

    The shared index template forces this stage to stay on one node — the
    *partial parallelism* limitation FRESQUE removes (Section 4.2).
    """

    def __init__(
        self,
        schema: Schema,
        domain: AttributeDomain,
        epsilon: float,
        fanout: int = 16,
        rng: random.Random | None = None,
    ):
        self.schema = schema
        self.domain = domain
        self.epsilon = epsilon
        self.fanout = fanout
        self._rng = rng if rng is not None else random.Random()
        self.parser = Parser(schema)
        self.template: IndexTemplate | None = None
        self._negative_budget: list[int] = []
        self.removed: list[Record] = []
        self.publication = -1

    def start_publication(self) -> None:
        """Draw a fresh perturbed template."""
        self.publication += 1
        self.template = IndexTemplate(
            self.domain, fanout=self.fanout, epsilon=self.epsilon,
            rng=self._rng,
        )
        self._negative_budget = [
            max(0, -noise) for noise in self.template.plan.leaf_noise
        ]
        self.removed = []

    def admit_line(self, line: str) -> WorkerTask | None:
        """Parse + check one raw line; ``None`` if buffered as removed."""
        record = self.parser.parse(line)
        return self.admit_record(record)

    def admit_record(self, record: Record) -> WorkerTask | None:
        """Check one record against the template's remaining noise."""
        if self.template is None:
            raise RuntimeError("no active publication")
        offset = self.domain.leaf_offset(record.indexed_value(self.schema))
        if not record.is_dummy and self._negative_budget[offset] > 0:
            self._negative_budget[offset] -= 1
            self.removed.append(record)
            self.template.update_with_record(offset)
            return None
        if not record.is_dummy:
            self.template.update_with_record(offset)
        return WorkerTask(self.publication, record, offset)


class WorkerNode:
    """One enricher + encrypter worker."""

    def __init__(
        self,
        worker_id: int,
        schema: Schema,
        cipher: RecordCipher,
        rng: random.Random | None = None,
    ):
        self.worker_id = worker_id
        self.enricher = Enricher(rng=rng)
        self.encrypter = Encrypter(schema, cipher)
        self.enricher.begin_publication()
        self.processed = 0

    def process(self, task: WorkerTask) -> WorkerOutput:
        """Tag and encrypt one record."""
        tag = self.enricher.tag()
        ciphertext = self.encrypter.encrypt(task.record)
        self.processed += 1
        return WorkerOutput(
            publication=task.publication,
            tag=tag,
            leaf_offset=task.leaf_offset,
            ciphertext=ciphertext,
            dummy=task.record.is_dummy,
        )


class ParallelPinedRqPPSystem:
    """The full parallel PINED-RQ++ deployment (synchronous driver).

    Parameters
    ----------
    schema, domain:
        Relation schema and binned domain.
    cipher:
        Record cipher shared with the client.
    num_workers:
        Enricher/encrypter nodes.
    epsilon, delta:
        Privacy budget and overflow-sizing probability.
    """

    def __init__(
        self,
        schema: Schema,
        domain: AttributeDomain,
        cipher: RecordCipher,
        num_workers: int = 4,
        epsilon: float = 1.0,
        delta: float = 0.99,
        fanout: int = 16,
        seed: int | None = None,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        rng = random.Random(seed)
        self.schema = schema
        self.domain = domain
        self.cipher = cipher
        self.delta = delta
        self.front = FrontNode(
            schema, domain, epsilon, fanout=fanout,
            rng=random.Random(rng.random()),
        )
        self.workers = [
            WorkerNode(i, schema, cipher, rng=random.Random(rng.random()))
            for i in range(num_workers)
        ]
        self._rng = random.Random(rng.random())
        self.cloud = MatchingTableCloud(domain)
        self._matching_table: dict[int, int] = {}
        self._next_worker = 0
        self._dummy_queue: deque[Record] = deque()

    def start_publication(self) -> None:
        """Open a publication on the front node and the cloud."""
        self.front.start_publication()
        self.cloud.announce_publication(self.front.publication)
        self._matching_table = {}
        for worker in self.workers:
            worker.enricher.begin_publication()
        self._dummy_queue = deque()
        plan = self.front.template.plan
        for offset, noise in enumerate(plan.leaf_noise):
            low, high = self.domain.leaf_range(offset)
            for _ in range(max(0, noise)):
                value = low if high <= low else low + self._rng.random() * (
                    high - low
                )
                self._dummy_queue.append(make_dummy(self.schema, value))
        self._rng.shuffle(self._dummy_queue)

    def _forward(self, task: WorkerTask) -> None:
        worker = self.workers[self._next_worker]
        self._next_worker = (self._next_worker + 1) % len(self.workers)
        output = worker.process(task)
        self._matching_table[output.tag] = output.leaf_offset
        self.cloud.receive_tagged(
            output.publication,
            output.tag,
            EncryptedRecord(
                leaf_offset=None,
                ciphertext=output.ciphertext,
                tag=output.tag,
                publication=output.publication,
            ),
        )

    def ingest_line(self, line: str) -> None:
        """One raw line through front → worker → cloud; dummies interleave."""
        if self._dummy_queue and self._rng.random() < 0.5:
            dummy_task = self.front.admit_record(self._dummy_queue.popleft())
            if dummy_task is not None:
                self._forward(dummy_task)
        task = self.front.admit_line(line)
        if task is not None:
            self._forward(task)

    def publish(self) -> int:
        """Synchronous publication; returns the records matched."""
        while self._dummy_queue:
            task = self.front.admit_record(self._dummy_queue.popleft())
            if task is not None:
                self._forward(task)
        template = self.front.template
        bound = LaplaceMechanism(
            1.0 / template.plan.per_level_scale
        ).positive_noise_bound(self.delta)
        encrypter = Encrypter(self.schema, self.cipher)
        per_leaf: dict[int, list[Record]] = {}
        for record in self.front.removed:
            offset = self.domain.leaf_offset(
                record.indexed_value(self.schema)
            )
            per_leaf.setdefault(offset, []).append(record)
        overflow: dict[int, OverflowArray] = {}
        for offset in range(self.domain.num_leaves):
            array = OverflowArray(offset, capacity=bound)
            for record in per_leaf.get(offset, ())[:bound]:
                array.add_removed(
                    EncryptedRecord(
                        leaf_offset=None,
                        ciphertext=encrypter.encrypt(record),
                        publication=self.front.publication,
                    )
                )

            def padding(offset=offset):
                low, high = self.domain.leaf_range(offset)
                value = low if high <= low else low + self._rng.random() * (
                    high - low
                )
                return EncryptedRecord(
                    leaf_offset=None,
                    ciphertext=encrypter.encrypt(
                        make_dummy(self.schema, value)
                    ),
                    publication=self.front.publication,
                )

            array.seal(padding, rng=self._rng)
            overflow[offset] = array
        receipt = self.cloud.receive_publication(
            self.front.publication,
            template.tree,
            {offset: array.ciphertexts for offset, array in overflow.items()},
            dict(self._matching_table),
        )
        return receipt.records_matched
