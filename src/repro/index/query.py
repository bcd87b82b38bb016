"""Range-query traversal over a perturbed index.

A query starts at the root and recursively descends into any child whose
interval intersects the query range *and* whose noisy count is non-negative
(Section 4.1).  At overlapping leaves it returns the leaf offsets; the cloud
then hands back those leaves' records and overflow arrays.

Because counts are noisy, traversal is approximate: a leaf whose noisy count
went negative is pruned (its un-removed records are missed), and leaves kept
alive by positive noise may return dummies the client discards after
decryption.  The precision/recall consequences are measured in
``repro.analysis.quality``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.index.tree import IndexNode, IndexTree


@dataclass(frozen=True)
class RangeQuery:
    """A one-dimensional closed range predicate ``low <= Aq <= high``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low <= self.high:  # a NaN bound compares False too
            raise ValueError(f"empty query range [{self.low}, {self.high}]")

    def contains(self, value: float) -> bool:
        """Whether ``value`` satisfies the predicate."""
        return self.low <= value <= self.high


@dataclass(frozen=True)
class TraversalResult:
    """Outcome of traversing a perturbed index for a query.

    Parameters
    ----------
    leaf_offsets:
        Offsets of the leaves the traversal reached (records + overflow
        arrays of these leaves are returned by the cloud).
    nodes_visited:
        Number of index nodes inspected — the query-cost metric.
    pruned_leaves:
        Offsets of overlapping leaves that were skipped because a node on
        their path had a negative noisy count (recall loss).
    """

    leaf_offsets: tuple[int, ...]
    nodes_visited: int
    pruned_leaves: tuple[int, ...]


def _collect_leaves(node: IndexNode, out: list[int]) -> None:
    if node.is_leaf:
        out.append(node.leaf_offset)
        return
    for child in node.children:
        _collect_leaves(child, out)


def traverse(tree: IndexTree, query: RangeQuery) -> TraversalResult:
    """Evaluate ``query`` over a (noisy) index tree.

    The root is always entered (PINED-RQ publishes the index so the whole
    dataset is reachable); children are pruned on negative counts.
    """
    reached: list[int] = []
    pruned: list[int] = []
    visited = 0
    stack = [tree.root] if tree.root.overlaps(query.low, query.high) else []
    while stack:
        node = stack.pop()
        visited += 1
        if node.is_leaf:
            if node.count < 0:
                pruned.append(node.leaf_offset)
            else:
                reached.append(node.leaf_offset)
            continue
        for child in node.children:
            if not child.overlaps(query.low, query.high):
                continue
            if child.count < 0:
                _collect_leaves(child, pruned)
                continue
            stack.append(child)
    reached.sort()
    pruned.sort()
    return TraversalResult(
        leaf_offsets=tuple(reached),
        nodes_visited=visited,
        pruned_leaves=tuple(pruned),
    )
