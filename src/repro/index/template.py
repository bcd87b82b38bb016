"""Index templates and the AL/ALN leaf arrays.

PINED-RQ++ builds its secure index incrementally: a publication starts from
an *index template* — a tree whose counts hold only the pre-drawn noise —
and every arriving record updates the counts along its root-to-leaf path
(O(log_k n) per record, Section 4.1).

FRESQUE keeps the template untouched during the interval and instead
maintains two flat integer arrays at the checking node (Section 5.1(b)):

* ``AL``  — the true count of real records seen per leaf;
* ``ALN`` — the remaining noise per leaf (negative entries are consumed as
  arriving records are diverted to the merger as *removed*).

Both updates are O(1); at publishing time the merger combines the template's
noise with AL to obtain the full noisy index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from repro.index.domain import AttributeDomain
from repro.index.perturb import NoisePlan, draw_noise_plan
from repro.index.tree import IndexTree


class IndexTemplate:
    """A noise-initialised index tree plus its originating noise plan.

    Parameters
    ----------
    domain:
        The binned attribute domain.
    fanout:
        Branching factor of the tree.
    plan:
        Pre-drawn noise; if ``None``, a fresh plan is sampled with
        ``epsilon`` and ``rng``.
    epsilon:
        Publication budget (required when ``plan`` is None).
    """

    def __init__(
        self,
        domain: AttributeDomain,
        fanout: int = 16,
        plan: NoisePlan | None = None,
        epsilon: float | None = None,
        rng: random.Random | None = None,
    ):
        self.domain = domain
        self.tree = IndexTree(domain, fanout=fanout)
        if plan is None:
            if epsilon is None:
                raise ValueError("either a noise plan or an epsilon is required")
            plan = draw_noise_plan(self.tree, epsilon, rng=rng)
        self.plan = plan
        self.tree.reset_counts(0.0)
        for level_nodes, level_noise in zip(self.tree.levels, plan.node_noise):
            for node, noise in zip(level_nodes, level_noise):
                node.count = noise

    @property
    def epsilon(self) -> float:
        """Budget consumed by the template's noise plan."""
        return self.plan.epsilon

    def update_with_record(self, leaf_offset: int) -> None:
        """PINED-RQ++'s per-record O(log_k n) path update."""
        self.tree.add_record_path(leaf_offset, 1.0)

    def noisy_leaf_counts(self) -> list[float]:
        """Current leaf counts (noise plus whatever updates were applied)."""
        return self.tree.leaf_counts()


@dataclass
class CheckResult:
    """Outcome of the checking node processing one real record."""

    removed: bool
    leaf_offset: int


class LeafArrays:
    """FRESQUE's AL/ALN arrays (Section 5.1(b)).

    Parameters
    ----------
    leaf_noise:
        The pre-drawn per-leaf noise; seeds ALN.
    """

    def __init__(self, leaf_noise: tuple[int, ...] | list[int]):
        self.al = [0] * len(leaf_noise)
        self.aln = list(leaf_noise)
        self._removed = [0] * len(leaf_noise)

    @property
    def num_leaves(self) -> int:
        """Number of leaves tracked."""
        return len(self.al)

    @property
    def removed_per_leaf(self) -> tuple[int, ...]:
        """How many arriving records each leaf diverted to the merger."""
        return tuple(self._removed)

    @property
    def total_real(self) -> int:
        """Total real records seen (published + removed)."""
        return sum(self.al)

    def check_and_update(self, leaf_offset: int) -> CheckResult:
        """Process one real record's leaf offset in O(1).

        If the leaf's remaining noise is negative, the record is *removed*
        (diverted to the merger for the overflow array) and both arrays are
        incremented; otherwise only the true count AL is incremented.

        Raises
        ------
        IndexError
            For an out-of-range leaf offset.
        """
        if not 0 <= leaf_offset < len(self.al):
            raise IndexError(
                f"leaf offset {leaf_offset} outside [0, {len(self.al)})"
            )
        if self.aln[leaf_offset] < 0:
            self.aln[leaf_offset] += 1
            self.al[leaf_offset] += 1
            self._removed[leaf_offset] += 1
            return CheckResult(removed=True, leaf_offset=leaf_offset)
        self.al[leaf_offset] += 1
        return CheckResult(removed=False, leaf_offset=leaf_offset)

    def check_and_update_bulk(self, leaf_offsets: list[int]) -> list[bool]:
        """Batched :meth:`check_and_update`: one call per record batch.

        Returns the per-offset *removed* flags in input order.  Semantics
        are exactly the sequential ones (ALN is consumed in order), with
        the array and bound lookups hoisted out of the loop.
        """
        al = self.al
        aln = self.aln
        removed_counts = self._removed
        num_leaves = len(al)
        removed: list[bool] = []
        mark = removed.append
        for leaf_offset in leaf_offsets:
            if not 0 <= leaf_offset < num_leaves:
                raise IndexError(
                    f"leaf offset {leaf_offset} outside [0, {num_leaves})"
                )
            al[leaf_offset] += 1
            if aln[leaf_offset] < 0:
                aln[leaf_offset] += 1
                removed_counts[leaf_offset] += 1
                mark(True)
            else:
                mark(False)
        return removed

    def snapshot(self) -> list[int]:
        """Copy of AL, as shipped to the merger at publishing time."""
        return list(self.al)

    def state(self) -> dict:
        """All three arrays, for collector checkpoints."""
        return {
            "al": list(self.al),
            "aln": list(self.aln),
            "removed": list(self._removed),
        }

    @classmethod
    def from_state(cls, state: dict) -> "LeafArrays":
        """Rebuild mid-publication arrays from :meth:`state` output."""
        arrays = cls(state["aln"])
        arrays.al = list(state["al"])
        arrays._removed = list(state["removed"])
        return arrays


def merge_plan_and_counts(
    domain: AttributeDomain,
    plan: NoisePlan,
    true_leaf_counts,
    fanout: int = 16,
) -> IndexTree:
    """Combine a template's noise plan with true leaf counts — merger logic.

    Builds the one tree of the publication: every node's count is its
    pre-drawn noise plus the sum of the true counts of the leaves below
    it — what the noise-only template would read after PINED-RQ++'s
    per-record updates.  Uses prefix sums so the merge is O(total
    nodes), independent of the record count.
    """
    merged = IndexTree(domain, fanout=fanout)
    num_leaves = merged.num_leaves
    if len(true_leaf_counts) != num_leaves:
        raise ValueError(
            f"got {len(true_leaf_counts)} counts for {num_leaves} leaves"
        )
    prefix = [0, *accumulate(true_leaf_counts)]
    span = 1
    for level_nodes, level_noise in zip(merged.levels, plan.node_noise):
        for node_index, (node, noise) in enumerate(zip(level_nodes, level_noise)):
            leaf_low = node_index * span
            leaf_high = min((node_index + 1) * span, num_leaves)
            node.count = noise + (prefix[leaf_high] - prefix[leaf_low])
        span *= fanout
    return merged
