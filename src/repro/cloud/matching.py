"""Matching processes: associating published indexes with stored records.

When the secure index of a publication arrives, the cloud must connect each
index leaf to the e-records (already on disk) that belong to it:

* **FRESQUE** takes over the in-memory
  :class:`~repro.cloud.metadata.MetadataCache`'s ``leaf -> [ordinals]``
  table as it stands — no disk I/O, no per-pointer work, time independent
  of record sizes (Figure 15 shows ≤54 ms even for 5M-record publications);
* **PINED-RQ++** stored ``<random tag, e-record>`` pairs and must read every
  published record back from disk, look its tag up in the *matching table*,
  and write it back — time grows linearly with the publication (≈78 s at 5M
  records in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.metadata import MetadataCache
from repro.cloud.storage import EncryptedStore


@dataclass(frozen=True)
class MatchStats:
    """Work performed by one matching process (consumed by the cost model)."""

    records: int
    bytes_read: int
    bytes_written: int
    table_lookups: int


@dataclass
class LeafPointers:
    """Pointers from index leaves to stored records for one publication:
    ``leaf offset -> ordinals`` inside the publication's file."""

    by_leaf: dict[int, list[int]] = field(default_factory=dict)

    def add(self, leaf_offset: int, ordinal: int) -> None:
        """Attach one record ordinal to a leaf."""
        self.by_leaf.setdefault(leaf_offset, []).append(ordinal)

    def ordinals(self, leaf_offset: int):
        """Record ordinals for ``leaf_offset`` (empty if none)."""
        return self.by_leaf.get(leaf_offset, ())

    @property
    def total(self) -> int:
        """Total pointers across all leaves."""
        return sum(len(ordinals) for ordinals in self.by_leaf.values())


def match_with_metadata(cache: MetadataCache) -> tuple[LeafPointers, MatchStats]:
    """FRESQUE's matching: the metadata cache's table *is* the pointers.

    The cache is destroyed by the hand-over, as the paper specifies.
    """
    records = cache.entry_count
    return LeafPointers(cache.release()), MatchStats(
        records=records, bytes_read=0, bytes_written=0, table_lookups=0
    )


def match_with_table(
    store: EncryptedStore,
    file_id: int,
    tag_ordinals: dict[int, int],
    matching_table: dict[int, int],
) -> tuple[LeafPointers, MatchStats]:
    """PINED-RQ++'s matching: read back, look up the tag, write back.

    Parameters
    ----------
    store:
        The cloud's encrypted store (charged for the read-back I/O).
    file_id:
        The publication file to match.
    tag_ordinals:
        ``random tag -> ordinal`` recorded as pairs arrived.
    matching_table:
        ``random tag -> leaf offset`` published by the collector at the end
        of the interval.

    Unknown tags (records of dummies whose leaf the table omits) are skipped;
    the paper's matching table covers every published record, so in practice
    every tag resolves.
    """
    ciphertexts = store.read_ordinals(file_id, list(tag_ordinals.values()))
    bytes_moved = sum(map(len, ciphertexts))
    pointers = LeafPointers()
    for tag, ordinal in tag_ordinals.items():
        leaf_offset = matching_table.get(tag)
        if leaf_offset is not None:
            pointers.add(leaf_offset, ordinal)
    return pointers, MatchStats(
        records=pointers.total,
        bytes_read=bytes_moved,
        bytes_written=bytes_moved,
        table_lookups=len(ciphertexts),
    )
