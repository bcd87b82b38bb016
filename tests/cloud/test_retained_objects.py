"""Neither the cloud nor the collector retains a GC-tracked object per pair.

A count gate on the mechanism, not on time: a publication is kept as
columns (``bytes`` ciphertexts and ints, none of them GC-tracked), so
what a full collection has to walk does not grow with the pairs the
cloud has ever stored.  The object-per-record layout this replaced kept
about two tracked objects per published pair (four while in flight).
"""

from __future__ import annotations

import dataclasses
import gc

from repro.cloud.node import FresqueCloud
from repro.core.system import FresqueSystem
from repro.index.domain import AttributeDomain
from repro.index.query import RangeQuery
from repro.index.tree import IndexTree

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
        batch = range(start, min(start + 64, PAIRS))
        cloud.receive_pairs(
            0,
            tuple(index % leaves for index in batch),
            tuple(index.to_bytes(4, "little") * 12 for index in batch),
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



def test_tracked_objects_do_not_grow_with_records_inside_the_collector(
    flu_config, fast_cipher, flu_generator
):
    """The same gate one hop upstream: a pair is a slot of three columns
    from the computing node through the randomer to the cloud's in-flight
    file, so records inside a mid-publication collector add no GC-tracked
    object each — only a removed record at the merger (at most the
    negative leaf noise) is one.  The row form this replaced (``Pair`` +
    ``EncryptedRecord`` per resident) grew by two per resident."""
    lines = list(flu_generator.raw_lines(PAIRS))
    system = FresqueSystem(
        dataclasses.replace(flu_config, alpha=4.0, batch_size=64),
        fast_cipher,
        seed=7,
    )
    system.start()
    system.ingest_batch(lines[:64])  # lazy set-up done before the baseline
    gc.collect()
    baseline = len(gc.get_objects())

    system.ingest_batch(lines[64:])
    # All three places a mid-publication record can be are populated.
    assert len(system.checking.buffered_pairs()) >= PAIRS // 2
    assert system.cloud.pair_count(0) >= 1000
    assert system.merger.pending_removed()
    assert _tracked_growth(baseline) <= 0.1 * PAIRS + CONSTANT
