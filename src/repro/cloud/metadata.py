"""The cloud's in-memory metadata cache.

FRESQUE's cloud avoids re-reading published records from disk at matching
time: as each ``<leaf offset, e-record>`` pair arrives, the record goes to
disk and a ``<leaf offset, physical location>`` entry is cached in memory,
organised as ``leaf offset -> list of physical locations`` (Section 5.3,
Cloud).  A record's location inside its publication file is its arrival
ordinal, so the cache is two int structures: ``leaf offset -> [ordinals]``
and one arrival-ordered column of leaf offsets.  The column is what
crash-recovery truncation, the unindexed query filter and the in-flight
pair listing all read.  The cache is destroyed after the matching process.
"""

from __future__ import annotations


class MetadataCache:
    """``leaf offset -> [ordinals]`` for one in-flight publication."""

    def __init__(self, publication: int):
        self.publication = publication
        self._by_leaf: dict[int, list[int]] = {}
        #: Leaf offset of every arrival; its index is the record's ordinal.
        self._leaves: list[int] = []
        self._destroyed = False

    @property
    def entry_count(self) -> int:
        """Number of cached locations."""
        return len(self._leaves)

    @property
    def is_destroyed(self) -> bool:
        """Whether the cache was dropped after matching."""
        return self._destroyed

    @property
    def leaves(self) -> list[int]:
        """Leaf offsets in arrival order (index = record ordinal)."""
        return self._leaves

    def extend(self, leaf_offsets) -> None:
        """Cache the leaf offsets (a sequence) of a run of arriving
        records; their ordinals continue the arrival count."""
        if self._destroyed:
            raise RuntimeError("metadata cache already destroyed")
        by_leaf = self._by_leaf
        for ordinal, leaf_offset in enumerate(leaf_offsets, len(self._leaves)):
            ordinals = by_leaf.get(leaf_offset)
            if ordinals is None:
                by_leaf[leaf_offset] = [ordinal]
            else:
                ordinals.append(ordinal)
        self._leaves += leaf_offsets

    def truncate(self, count: int) -> int:
        """Keep only the first ``count`` arrivals; return entries dropped.

        Used by crash recovery to roll an in-flight publication's cache
        back to the collector checkpoint it resumes from.
        """
        cached = len(self._leaves)
        if count < 0 or count > cached:
            raise ValueError(
                f"cannot truncate {cached} cached entries to {count}"
            )
        kept = self._leaves[:count]
        self._leaves = []
        self._by_leaf = {}
        self.extend(kept)
        return cached - count

    def ordinals_in(self, leaf_offsets) -> list[int]:
        """Ordinals of every arrival under ``leaf_offsets``, in arrival
        order."""
        by_leaf = self._by_leaf
        found = [
            ordinal
            for leaf_offset in leaf_offsets
            for ordinal in by_leaf.get(leaf_offset, ())
        ]
        found.sort()
        return found

    def size_bytes(self) -> int:
        """Approximate memory footprint: the paper stresses the metadata is
        small and independent of e-record size — one (leaf, location) entry
        per record, modelled at 24 bytes each."""
        return 24 * len(self._leaves)

    def release(self) -> dict[int, list[int]]:
        """Hand the ``leaf offset -> [ordinals]`` table over to the
        matching process and destroy the cache: no pointer is copied."""
        by_leaf = self._by_leaf
        self._by_leaf = {}
        self._leaves = []
        self._destroyed = True
        return by_leaf
