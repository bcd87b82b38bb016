"""Correctness oracle: what every receipt and every query must show.

The reference is computed in the harness from the plaintext lines, with
the two losses FRESQUE has *by design* modelled from public state rather
than waved through:

* **index pruning** — a published leaf (or subtree) whose noisy count
  went negative is skipped by the traversal (Section 4.1), so its
  records are not returned.  The reference applies the published tree's
  own :func:`repro.index.query.traverse` to decide which leaves a query
  reaches; everything after that (pointers, store reads, overflow
  arrays, decryption, exact filtering) is checked against plaintext.
* **overflow truncation** — a leaf whose negative noise exceeds the
  overflow capacity (probability 1 - delta per leaf) loses the removed
  records beyond the capacity when the merger seals the array.  A
  one-call-per-publication audit on ``merger.on_al`` reads the public
  ``pending_removed()`` and identifies exactly those records; their
  count must equal ``checking.records_removed`` minus the merger's own
  ``MergeReport.removed_records``, or the difference counts as failed.

Anything else missing, extra or out of range is a failure.
"""

from __future__ import annotations

import bisect
from collections import Counter

from repro.index.query import RangeQuery, traverse
from repro.records.serialize import deserialize_record, parse_raw_line


class PublicationReference:
    """Plaintext records of one publication, ordered by indexed value."""

    def __init__(self, lines, schema, domain):
        position = schema.indexed_position
        rows = []
        for arrival, line in enumerate(lines):
            values = parse_raw_line(line, schema).values
            rows.append((values[position], arrival, values))
        rows.sort(key=lambda row: (row[0], row[1]))
        self.keys = [row[0] for row in rows]
        self.arrival = [row[1] for row in rows]
        self.values = [row[2] for row in rows]
        self.leaves = [domain.leaf_offset(key) for key in self.keys]
        self.count = len(rows)

    def matching(self, low, high, visible: int, pruned=frozenset()) -> Counter:
        """Records in ``[low, high]`` among the first ``visible`` arrivals,
        outside the ``pruned`` leaves."""
        start = bisect.bisect_left(self.keys, low)
        stop = bisect.bisect_right(self.keys, high)
        arrival, leaves, values = self.arrival, self.leaves, self.values
        return Counter(
            values[i]
            for i in range(start, stop)
            if arrival[i] < visible and leaves[i] not in pruned
        )


class Oracle:
    """Collects observations during a repetition and judges them after."""

    def __init__(self, config, cipher):
        self.config = config
        self.schema = config.schema
        self.domain = config.domain
        # The cipher's own decrypt, captured before any tracing wrapper.
        self._decrypt = cipher.decrypt
        self.references: list[PublicationReference] = []
        #: publication -> records the merger's overflow truncation dropped
        self.dropped: dict[int, Counter] = {}
        self.failures: list[str] = []
        self.failed = 0
        self.exact_matches = 0
        self.returned = 0

    # -- feeding -----------------------------------------------------------

    def add_publication(self, lines) -> None:
        self.references.append(
            PublicationReference(lines, self.schema, self.domain)
        )

    def audit_merger(self, merger) -> None:
        """Identify overflow-truncated records as ``merger`` seals them."""
        original = merger.on_al
        capacity = self.config.overflow_capacity

        def audited(message):
            held: dict[int, list] = {}
            for publication, leaf, encrypted in merger.pending_removed():
                if publication == message.publication:
                    held.setdefault(leaf, []).append(encrypted)
            lost = self.dropped.setdefault(message.publication, Counter())
            for records in held.values():
                for encrypted in records[capacity:]:
                    plaintext = self._decrypt(encrypted.ciphertext)
                    lost[deserialize_record(plaintext, self.schema).values] += 1
            return original(message)

        merger.on_al = audited

    # -- judging -----------------------------------------------------------

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)

    def check_receipt(
        self, publication, receipt, real, dummies, removed, sealed
    ) -> None:
        """``records_matched`` = real + dummies - removed; truncation
        reconciles with the merger's own report."""
        if receipt is None:
            self.fail(real, f"publication {publication}: no receipt")
            return
        expected = real + dummies - removed
        if receipt.records_matched != expected:
            self.fail(
                abs(receipt.records_matched - expected),
                f"publication {publication}: receipt matched "
                f"{receipt.records_matched}, accounting says {expected}",
            )
        audited = sum(self.dropped.get(publication, Counter()).values())
        if audited != removed - sealed:
            self.fail(
                abs(audited - (removed - sealed)),
                f"publication {publication}: {removed - sealed} removed "
                f"records never sealed, audit identified {audited}",
            )

    def check_query(self, low, high, current, visible, result, published):
        """Judge one query result against the plaintext reference.

        ``current`` is the in-flight publication when the query ran and
        ``visible`` how many of its lines had been flushed into the
        pipeline; every earlier publication was complete and is in
        ``published`` (``cloud.engine.published``), whose noisy trees the
        pruning rule is read from.
        """
        query = RangeQuery(low, high)
        trees = {dataset.publication: dataset.tree for dataset in published}
        expected: Counter = Counter()
        for publication, reference in enumerate(self.references[: current + 1]):
            if publication == current:
                part = reference.matching(low, high, visible)
                self.exact_matches += sum(part.values())
            else:
                whole = reference.matching(low, high, reference.count)
                self.exact_matches += sum(whole.values())
                tree = trees.get(publication)
                if tree is None:
                    self.fail(1, f"publication {publication} is not published")
                    continue
                pruned = frozenset(traverse(tree, query).pruned_leaves)
                part = (
                    reference.matching(low, high, reference.count, pruned)
                    if pruned
                    else whole
                ) - self.dropped.get(publication, Counter())
            expected.update(part)
        got = Counter(record.values for record in result.records)
        self.returned += sum(got.values())
        if got != expected:
            missing = sum((expected - got).values())
            extra = sum((got - expected).values())
            self.fail(
                1,
                f"query [{low}, {high}] at publication {current}: "
                f"{missing} missing, {extra} unexpected",
            )
