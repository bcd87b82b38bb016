"""The cloud retains no GC-tracked object per stored pair.

A count gate on the mechanism, not on time: a publication is kept as
columns (``bytes`` ciphertexts and ints, none of them GC-tracked), so
what a full collection has to walk does not grow with the pairs the
cloud has ever stored.  The object-per-record layout this replaced kept
about two tracked objects per published pair (four while in flight).
"""

from __future__ import annotations

import gc

from repro.cloud.node import FresqueCloud
from repro.index.domain import AttributeDomain
from repro.index.query import RangeQuery
from repro.index.tree import IndexTree
from repro.records.record import EncryptedRecord

PAIRS = 5_000
#: Per-leaf pointer lists, the columns, the dataset, receipt and file.
CONSTANT = 400


def _tracked_growth(baseline: int) -> int:
    gc.collect()
    return len(gc.get_objects()) - baseline


def test_tracked_objects_do_not_grow_with_stored_pairs():
    domain = AttributeDomain(0, 1000, 10)
    leaves = domain.num_leaves
    cloud = FresqueCloud(domain)
    tree = IndexTree(domain, fanout=4)
    tree.set_leaf_counts([PAIRS // leaves] * leaves)
    gc.collect()
    baseline = len(gc.get_objects())

    cloud.announce_publication(0)
    for start in range(0, PAIRS, 64):
        cloud.receive_pairs(
            0,
            [
                (
                    index % leaves,
                    EncryptedRecord(
                        index % leaves, index.to_bytes(4, "little") * 12
                    ),
                )
                for index in range(start, min(start + 64, PAIRS))
            ],
        )
    budget = 0.1 * PAIRS + CONSTANT
    assert _tracked_growth(baseline) <= budget  # in flight

    receipt = cloud.receive_publication(0, tree, {})
    assert receipt.records_matched == PAIRS
    assert _tracked_growth(baseline) <= budget  # published

    result = cloud.query(RangeQuery(0, 1000))
    assert len(result.indexed) == PAIRS
    del result
    assert _tracked_growth(baseline) <= budget  # records are built per query
