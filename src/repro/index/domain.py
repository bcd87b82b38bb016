"""Attribute domains and leaf-offset computation.

A PINED-RQ index is a histogram over the domain of the indexed attribute:
the domain ``[dmin, dmax]`` is cut into fixed-width bins (leaves).  FRESQUE's
computing nodes map a value to its leaf with the closed-form *leaf offset*
of Section 5.1(b)::

    Ov = min( floor((v - dmin) / Ib), floor((dmax - dmin) / Ib) - 1 )

which is O(1) — the property that lets the checking node drop the O(log n)
index-template traversals of PINED-RQ++.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class DomainError(ValueError):
    """Raised for malformed domains or out-of-domain values."""


@dataclass(frozen=True)
class AttributeDomain:
    """The binned domain of an indexed attribute.

    Parameters
    ----------
    dmin, dmax:
        Inclusive domain bounds of the indexed attribute.
    bin_interval:
        Width ``Ib`` of each histogram bin (e.g. 1 KB for NASA reply bytes,
        one hour for Gowalla check-in times).
    """

    dmin: float
    dmax: float
    bin_interval: float
    _num_leaves: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.bin_interval <= 0:
            raise DomainError(
                f"bin interval must be positive, got {self.bin_interval}"
            )
        if self.dmax <= self.dmin:
            raise DomainError(
                f"domain max {self.dmax} must exceed domain min {self.dmin}"
            )
        if self.dmax - self.dmin < self.bin_interval:
            raise DomainError("domain must span at least one bin")
        object.__setattr__(
            self,
            "_num_leaves",
            int(math.floor((self.dmax - self.dmin) / self.bin_interval)),
        )

    @property
    def num_leaves(self) -> int:
        """Number of histogram bins (index leaves) covering the domain."""
        return self._num_leaves

    def leaf_offset(self, value: float) -> int:
        """Leaf offset of ``value`` (the paper's ``Ov`` formula).

        Raises
        ------
        DomainError
            If ``value`` lies outside ``[dmin, dmax]``.
        """
        if value < self.dmin or value > self.dmax:
            raise DomainError(
                f"value {value} outside domain [{self.dmin}, {self.dmax}]"
            )
        offset = int(math.floor((value - self.dmin) / self.bin_interval))
        return min(offset, self.num_leaves - 1)

    def leaf_range(self, offset: int) -> tuple[float, float]:
        """The ``[low, high)`` interval of the leaf at ``offset``.

        The last leaf's interval is closed on the right so the full domain
        is covered (it absorbs any remainder of a non-divisible domain).
        """
        if not 0 <= offset < self.num_leaves:
            raise DomainError(
                f"leaf offset {offset} outside [0, {self.num_leaves})"
            )
        low = self.dmin + offset * self.bin_interval
        if offset == self.num_leaves - 1:
            return low, self.dmax
        return low, low + self.bin_interval

    def leaf_spans(self) -> list[tuple[float, float]]:
        """``(low, high - low)`` of every leaf's :meth:`leaf_range`, in
        offset order: what a uniform draw over each leaf needs (a width
        of 0 or less leaves ``low`` as the only value)."""
        return [
            (low, high - low)
            for low, high in map(self.leaf_range, range(self.num_leaves))
        ]

    def leaves_overlapping(self, low: float, high: float) -> range:
        """Offsets of all leaves intersecting the query range ``[low, high]``.

        Ranges entirely outside the domain yield an empty range; partially
        overlapping ranges are clipped to the domain.
        """
        if high < low:
            raise DomainError(f"empty query range [{low}, {high}]")
        if high < self.dmin or low > self.dmax:
            return range(0)
        clipped_low = max(low, self.dmin)
        clipped_high = min(high, self.dmax)
        return range(
            self.leaf_offset(clipped_low), self.leaf_offset(clipped_high) + 1
        )


def nasa_domain() -> AttributeDomain:
    """NASA reply-byte domain: 3421 bins of 1 KB (Section 7.1)."""
    return AttributeDomain(dmin=0, dmax=3421 * 1024, bin_interval=1024)


def gowalla_domain() -> AttributeDomain:
    """Gowalla check-in-time domain: 626 bins of one hour (Section 7.1)."""
    return AttributeDomain(dmin=0, dmax=626 * 3600, bin_interval=3600)
