"""The bulk receive path ≡ the one-pair path.

``FresqueCloud.receive_pairs`` appends a batch — a leaf column and a
ciphertext column — to the publication's columns; ``receive_pair`` is the
same code with one element.  For any
pair stream, any split of it into batches, and a crash-recovery
``truncate_publication`` / ``reset_publication`` at an arbitrary cut, the
cloud must end up with identical files, pointers, in-flight listing,
counters and query results.

``FRESQUE_BATCH_SIZE=<n>`` (the CI batch matrix) pins every batch of the
split to ``n`` pairs, so the one-element and the 64-element bulk path are
each exercised on every push.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.node import FresqueCloud
from repro.index.domain import AttributeDomain
from repro.index.query import RangeQuery
from repro.index.tree import IndexTree
from repro.records.record import EncryptedRecord

_FORCED_BATCH = int(os.environ.get("FRESQUE_BATCH_SIZE", "0"))
_DOMAIN = AttributeDomain(0, 100, 10)
_QUERIES = (RangeQuery(0, 100), RangeQuery(20, 49), RangeQuery(95, 100))

_pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),  # leaf offset
        st.binary(min_size=1, max_size=40),  # ciphertext
    ),
    max_size=60,
)


def _stream(raw) -> list[tuple[int, EncryptedRecord]]:
    return [
        (leaf, EncryptedRecord(leaf, ciphertext, publication=0))
        for leaf, ciphertext in raw
    ]


def _feed(cloud, pairs, sizes) -> None:
    """Deliver ``pairs`` split by ``sizes`` (cycled); a batch of one goes
    through the singular entry point."""
    position = 0
    turn = 0
    while position < len(pairs):
        size = sizes[turn % len(sizes)]
        batch = pairs[position : position + size]
        if len(batch) == 1:
            cloud.receive_pair(0, *batch[0])
        else:
            cloud.receive_pairs(
                0,
                tuple(leaf for leaf, _ in batch),
                tuple(record.ciphertext for _, record in batch),
            )
        position += len(batch)
        turn += 1


def _observe_queries(cloud) -> list:
    return [
        (result.indexed, result.unindexed, result.nodes_visited)
        for result in map(cloud.query, _QUERIES)
    ]


def _run(pairs, sizes, cut, recovery, keep) -> dict:
    """Stream ``pairs[:cut]``, recover, stream the rest, publish, replay.

    ``recovery`` is ``"truncate"`` (roll back to the first ``keep`` pairs
    and resume from there), ``"reset"`` (discard and replay from the
    start) or ``None``.
    """
    cloud = FresqueCloud(_DOMAIN)
    store = cloud.store
    cloud.announce_publication(0)
    _feed(cloud, pairs[:cut], sizes)
    seen = {}
    if recovery == "truncate":
        seen["dropped"] = cloud.truncate_publication(0, keep)
        resume = keep
    elif recovery == "reset":
        assert cloud.reset_publication(0)
        cloud.announce_publication(0)
        resume = 0
    else:
        resume = cut
    _feed(cloud, pairs[resume:], sizes)
    seen["pair_count"] = cloud.pair_count(0)
    seen["in_flight"] = cloud.engine.in_flight_pairs()
    seen["unindexed_queries"] = _observe_queries(cloud)
    tree = IndexTree(_DOMAIN, fanout=4)
    tree.set_leaf_counts([1] * _DOMAIN.num_leaves)
    receipt = cloud.receive_publication(0, tree, {})
    seen["matched"] = receipt.records_matched
    (dataset,) = cloud.engine.published
    seen["pointers"] = {
        leaf: list(ordinals) for leaf, ordinals in dataset.pointers.by_leaf.items()
    }
    seen["indexed_queries"] = _observe_queries(cloud)
    _feed(cloud, pairs[: len(pairs) // 2], sizes)  # post-publish replay
    seen["duplicate_pairs"] = cloud.duplicate_pairs
    seen["file"] = [
        (address, record.ciphertext) for address, record in store.scan(0)
    ]
    seen["record_count"] = store.record_count(0)
    for counter in (
        "bytes_written", "write_ops", "bytes_read", "read_ops", "total_bytes"
    ):
        seen[counter] = getattr(store, counter)
    return seen


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    raw=_pairs,
    sizes=st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=5),
    recovery=st.sampled_from([None, "truncate", "reset"]),
    data=st.data(),
)
def test_any_batch_split_equals_pair_by_pair(raw, sizes, recovery, data):
    if _FORCED_BATCH:
        sizes = [_FORCED_BATCH]
    pairs = _stream(raw)
    cut = data.draw(st.integers(min_value=0, max_value=len(pairs)))
    keep = data.draw(st.integers(min_value=0, max_value=cut))
    bulk = _run(pairs, sizes, cut, recovery, keep)
    assert bulk == _run(pairs, [1], cut, recovery, keep)
    # Recovery leaves no trace: the end state is a clean run's.
    clean = _run(pairs, [1], len(pairs), None, 0)
    for field in (
        "file", "record_count", "pointers", "in_flight", "matched",
        "unindexed_queries", "indexed_queries", "total_bytes",
    ):
        assert bulk[field] == clean[field]


@pytest.mark.parametrize("size", [1, 64])
def test_fixed_batch_sizes_on_a_long_stream(size):
    """The two sizes the CI matrix names, without the environment."""
    pairs = _stream(
        [(index % 10, bytes([index % 251]) * (8 + index % 23)) for index in range(300)]
    )
    bulk = _run(pairs, [size], 200, "truncate", 130)
    assert bulk == _run(pairs, [1], 200, "truncate", 130)
    assert bulk["record_count"] == 300
    assert bulk["dropped"] == 70
