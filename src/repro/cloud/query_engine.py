"""Cloud-side range query evaluation.

A query is evaluated over both *indexed* data (published datasets, via the
secure index traversal of Section 4.1) and *unindexed* data (records of the
in-flight publication, filtered one by one on their cleartext leaf offset —
Section 5.3(c)).  The cloud only ever touches ciphertexts and leaf offsets;
decryption and final filtering happen at the client.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.matching import LeafPointers
from repro.cloud.metadata import MetadataCache
from repro.cloud.storage import EncryptedStore
from repro.index.domain import AttributeDomain
from repro.index.query import RangeQuery, traverse
from repro.index.tree import IndexTree


@dataclass
class PublishedDataset:
    """One fully published publication at the cloud.

    Parameters
    ----------
    publication:
        Monotonic publication number.
    tree:
        The secure (noisy) index tree.
    pointers:
        Leaf-to-record pointers assembled by the matching process.
    overflow:
        Per-leaf sealed overflow arrays, each a tuple of ciphertexts.
    file_id:
        The storage file holding this publication's records.
    """

    publication: int
    tree: IndexTree
    pointers: LeafPointers
    overflow: dict[int, tuple[bytes, ...]]
    file_id: int


@dataclass(frozen=True)
class QueryResult:
    """Encrypted result set returned to the client, as ciphertext columns.

    Parameters
    ----------
    indexed:
        Ciphertexts reached through published indexes.
    overflow:
        Overflow-array ciphertexts of every touched leaf (the removed
        records, padded with dummies).
    unindexed:
        Ciphertexts of in-flight pairs (and collector residents) whose
        leaf offset overlaps the query.
    nodes_visited:
        Total index nodes inspected (query-cost metric).
    """

    indexed: tuple[bytes, ...]
    overflow: tuple[bytes, ...]
    unindexed: tuple[bytes, ...]
    nodes_visited: int

    def ciphertexts(self) -> list[bytes]:
        """Every ciphertext the client must decrypt, in result order."""
        return [*self.indexed, *self.overflow, *self.unindexed]


class CloudQueryEngine:
    """Evaluates range queries over published and in-flight data.

    In-flight (unindexed) data is not copied here: the engine reads the
    publication's :class:`~repro.cloud.metadata.MetadataCache` — the same
    leaf column matching and crash recovery use — and fetches the matching
    ordinals from the store.
    """

    def __init__(self, domain: AttributeDomain, store: EncryptedStore):
        self._domain = domain
        self._store = store
        self._published: list[PublishedDataset] = []
        self._in_flight: dict[int, MetadataCache] = {}

    @property
    def published(self) -> tuple[PublishedDataset, ...]:
        """Publications whose secure index has been matched."""
        return tuple(self._published)

    def in_flight_pairs(self) -> list[tuple[int, bytes]]:
        """``(leaf, ciphertext)`` pairs of every in-flight publication.

        These are records already stored at the cloud whose publication's
        secure index has not arrived yet — the unindexed set of
        Section 5.3(c).
        """
        pairs: list[tuple[int, bytes]] = []
        for publication in self._in_flight:
            pairs += self._store.scan(publication)
        return pairs

    def open_publication(self, cache: MetadataCache) -> None:
        """Start serving the unindexed pairs ``cache`` lists."""
        self._in_flight[cache.publication] = cache

    def publish(self, dataset: PublishedDataset) -> None:
        """Install a matched publication; its pairs stop being unindexed."""
        self._published.append(dataset)
        self._in_flight.pop(dataset.publication, None)

    def discard_publication(self, publication: int) -> None:
        """Drop an in-flight publication's unindexed pairs entirely
        (crash recovery replays the publication from scratch)."""
        self._in_flight.pop(publication, None)

    def query(self, query: RangeQuery) -> QueryResult:
        """Evaluate a range query over everything the cloud holds."""
        read = self._store.read_ordinals
        indexed: list[bytes] = []
        overflow: list[bytes] = []
        nodes_visited = 0
        for dataset in self._published:
            result = traverse(dataset.tree, query)
            nodes_visited += result.nodes_visited
            by_leaf = dataset.pointers.by_leaf
            arrays = dataset.overflow
            ordinals: list[int] = []
            for leaf_offset in result.leaf_offsets:
                ordinals += by_leaf.get(leaf_offset, ())
                overflow += arrays.get(leaf_offset, ())
            indexed += read(dataset.file_id, ordinals)
        overlapping = self._domain.leaves_overlapping(query.low, query.high)
        unindexed: list[bytes] = []
        for publication, cache in self._in_flight.items():
            unindexed += read(publication, cache.ordinals_in(overlapping))
        return QueryResult(
            indexed=tuple(indexed),
            overflow=tuple(overflow),
            unindexed=tuple(unindexed),
            nodes_visited=nodes_visited,
        )
