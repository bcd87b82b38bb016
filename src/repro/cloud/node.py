"""The untrusted cloud node.

Receives publication-number announcements, streams of encrypted records,
and end-of-interval publications (secure index + overflow arrays), runs the
matching process, and serves range queries.  Two variants mirror the two
systems under comparison:

* :class:`FresqueCloud` — pairs are ``<leaf offset, e-record>``; matching
  walks the in-memory metadata cache (Section 5.3).
* :class:`MatchingTableCloud` — pairs are ``<random tag, e-record>``
  (PINED-RQ++); matching reads records back from disk using the published
  matching table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.matching import (
    MatchStats,
    match_with_metadata,
    match_with_table,
)
from repro.cloud.metadata import MetadataCache
from repro.cloud.query_engine import (
    CloudQueryEngine,
    PublishedDataset,
    QueryResult,
)
from repro.cloud.storage import EncryptedStore
from repro.index.domain import AttributeDomain
from repro.index.query import RangeQuery
from repro.index.tree import IndexTree
from repro.telemetry.context import coalesce


@dataclass(frozen=True)
class PublicationReceipt:
    """Returned by the cloud when a publication finishes matching."""

    publication: int
    records_matched: int
    stats: MatchStats


class CloudError(RuntimeError):
    """Raised on protocol violations (unknown publication, double publish)."""


class _BaseCloud:
    """State shared by both cloud variants.

    Parameters
    ----------
    domain:
        The indexed attribute's domain.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.

    Redelivery semantics: a crashed-and-recovered collector replays its
    journal, so the cloud may see a publication *again*.  Publication
    numbers are monotonic and never reused, which makes dedupe trivial:
    anything arriving for an already-*published* number is dropped (and
    counted), turning the collector's at-least-once replay into
    exactly-once publication.
    """

    def __init__(self, domain: AttributeDomain, telemetry=None):
        self.domain = domain
        self.store = EncryptedStore()
        self.engine = CloudQueryEngine(domain, self.store)
        self._active: set[int] = set()
        self._done: set[int] = set()
        self._receipts: dict[int, PublicationReceipt] = {}
        #: Redelivered messages dropped by the dedupe (monitoring).
        self.duplicate_publications = 0
        self.duplicate_pairs = 0
        self._tel = coalesce(telemetry)
        self._pairs_counter = self._tel.counter("cloud_pairs_total")
        self._bytes_counter = self._tel.counter("cloud_bytes_total")
        self._duplicates_counter = self._tel.counter(
            "cloud_duplicates_dropped_total"
        )

    def announce_publication(self, publication: int) -> None:
        """Handle a new publication number: open a fresh storage file.

        A re-announcement of an already-*published* number is a replay
        artefact and is dropped; re-announcing an *active* one is a
        protocol violation (numbers are handed out monotonically by one
        dispatcher) and still raises.
        """
        if publication in self._done:
            self.duplicate_publications += 1
            self._duplicates_counter.inc()
            return
        if publication in self._active:
            raise CloudError(f"publication {publication} already announced")
        self._active.add(publication)
        self.store.create_file(publication)

    def is_published(self, publication: int) -> bool:
        """Whether ``publication`` has completed its matching process."""
        return publication in self._done

    def is_announced(self, publication: int) -> bool:
        """Whether ``publication`` has been announced (active or done)."""
        return publication in self._active or publication in self._done

    def receipt_for(self, publication: int) -> PublicationReceipt | None:
        """The stored receipt of a published publication, if any."""
        return self._receipts.get(publication)

    def reset_publication(self, publication: int) -> bool:
        """Discard every trace of an *in-flight* publication.

        Crash recovery calls this before replaying a publication from
        its journalled start, so replayed pairs append into a fresh file
        instead of duplicating the pre-crash partial ones.  Returns
        ``False`` (and does nothing) if the publication already
        published — the replay is then deduped instead.
        """
        if publication in self._done:
            return False
        self._active.discard(publication)
        self.store.discard_file(publication)
        self.engine.discard_publication(publication)
        return True

    def _require_active(self, publication: int) -> None:
        if publication not in self._active:
            raise CloudError(f"publication {publication} is not active")

    def _install(
        self,
        publication: int,
        tree: IndexTree,
        pointers,
        overflow: dict[int, tuple[bytes, ...]],
        stats: MatchStats,
    ) -> PublicationReceipt:
        self.engine.publish(
            PublishedDataset(
                publication=publication,
                tree=tree,
                pointers=pointers,
                overflow=overflow,
                file_id=publication,
            )
        )
        self._active.discard(publication)
        self._done.add(publication)
        receipt = PublicationReceipt(
            publication=publication, records_matched=stats.records, stats=stats
        )
        self._receipts[publication] = receipt
        return receipt

    def query(self, query: RangeQuery) -> QueryResult:
        """Serve a client range query."""
        return self.engine.query(query)


class FresqueCloud(_BaseCloud):
    """Cloud in FRESQUE mode: leaf-offset pairs and metadata matching."""

    def __init__(self, domain: AttributeDomain, telemetry=None):
        super().__init__(domain, telemetry=telemetry)
        self._metadata: dict[int, MetadataCache] = {}

    def announce_publication(self, publication: int) -> None:
        super().announce_publication(publication)
        if publication in self._active:
            cache = MetadataCache(publication)
            self._metadata[publication] = cache
            self.engine.open_publication(cache)

    def reset_publication(self, publication: int) -> bool:
        if not super().reset_publication(publication):
            return False
        self._metadata.pop(publication, None)
        return True

    def pair_count(self, publication: int) -> int:
        """Pairs received so far for an in-flight publication."""
        self._require_active(publication)
        return self._metadata[publication].entry_count

    def truncate_publication(self, publication: int, count: int) -> int:
        """Trim an in-flight publication to its first ``count`` pairs.

        Crash recovery's mid-publication path: the collector checkpoint
        proves exactly ``count`` pairs were delivered before the
        snapshot; anything beyond is pre-crash work the replay will
        regenerate.  Returns the number of pairs dropped.
        """
        self._require_active(publication)
        dropped = self._metadata[publication].truncate(count)
        self.store.truncate_records(publication, count)
        return dropped

    def receive_pairs(self, publication: int, leaves, ciphertexts) -> int:
        """Store a batch of pairs — a leaf column and a ciphertext column —
        in order.

        One message-level entry point per :class:`ToCloudBatch` /
        :class:`BufferFlush`: the ciphertexts go to the publication's file
        and the leaf offsets to its metadata cache as the column appends
        they arrived as — nothing is built or retained per pair.  Returns
        the number stored; pairs of an already-published publication are
        replay duplicates, dropped and counted (0 returned).
        """
        count = len(leaves)
        if len(ciphertexts) != count:
            raise CloudError(f"{count} leaves for {len(ciphertexts)} ciphertexts")
        if publication in self._done:
            self.duplicate_pairs += count
            self._duplicates_counter.inc(count)
            return 0
        self._require_active(publication)
        written = self.store.bytes_written
        self.store.append_columns(publication, ciphertexts, leaves)
        self._metadata[publication].extend(leaves)
        self._pairs_counter.inc(count)
        self._bytes_counter.inc(self.store.bytes_written - written)
        return count

    def receive_publication(
        self,
        publication: int,
        tree: IndexTree,
        overflow: dict[int, tuple[bytes, ...]],
    ) -> PublicationReceipt:
        """Match the arriving secure index against the metadata cache.

        ``overflow`` maps a leaf to its sealed overflow array, a tuple of
        ciphertexts, which is stored and served as it arrived.  A
        redelivered publication (same monotonic number) is deduped:
        the stored receipt is returned and nothing is re-matched.
        """
        if publication in self._done:
            self.duplicate_publications += 1
            self._duplicates_counter.inc()
            return self._receipts[publication]
        start = self._tel.now()
        self._require_active(publication)
        cache = self._metadata.pop(publication)
        pointers, stats = match_with_metadata(cache)
        receipt = self._install(publication, tree, pointers, overflow, stats)
        self._tel.observe_stage("match", publication, start)
        self._tel.close_publication(publication)
        return receipt


class MatchingTableCloud(_BaseCloud):
    """Cloud in PINED-RQ++ mode: random tags and read-back matching."""

    def __init__(self, domain: AttributeDomain, telemetry=None):
        super().__init__(domain, telemetry=telemetry)
        #: publication -> ``random tag -> ordinal`` in its file.
        self._tags: dict[int, dict[int, int]] = {}

    def announce_publication(self, publication: int) -> None:
        super().announce_publication(publication)
        if publication in self._active:
            self._tags[publication] = {}

    def reset_publication(self, publication: int) -> bool:
        if not super().reset_publication(publication):
            return False
        self._tags.pop(publication, None)
        return True

    def receive_tagged(
        self, publication: int, tag: int, ciphertext: bytes
    ) -> None:
        """Store one arriving ``<id, e-record>`` pair: the ciphertext goes
        to the file (its leaf unknown until the matching table arrives),
        the tag only to the tag → ordinal map."""
        self._require_active(publication)
        self._tags[publication][tag] = self.store.append_columns(
            publication, (ciphertext,), (None,)
        )
        self._pairs_counter.inc()
        self._bytes_counter.inc(len(ciphertext))

    def receive_publication(
        self,
        publication: int,
        tree: IndexTree,
        overflow: dict[int, tuple[bytes, ...]],
        matching_table: dict[int, int],
    ) -> PublicationReceipt:
        """Run the read-back matching process with the published table."""
        start = self._tel.now()
        self._require_active(publication)
        pointers, stats = match_with_table(
            self.store, publication, self._tags.pop(publication), matching_table
        )
        receipt = self._install(publication, tree, pointers, overflow, stats)
        self._tel.observe_stage("match", publication, start)
        self._tel.close_publication(publication)
        return receipt
