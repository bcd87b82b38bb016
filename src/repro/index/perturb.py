"""Index perturbation: Laplace noise plans and the secure index.

Building a PINED-RQ index has two steps (Section 4.1): build the clear
histogram tree, then perturb every count independently with Laplace noise.
A publication's ε is split evenly across the tree's levels (a record touches
one count per level, so levels compose sequentially).

The streaming schemes (PINED-RQ++/FRESQUE) need the noise *before* the data
arrives, so noise generation is factored into a :class:`NoisePlan` that can
be drawn up-front and later combined with true counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.index.tree import IndexTree
from repro.privacy.budget import per_level_epsilon
from repro.privacy.laplace import LaplaceMechanism


@dataclass(frozen=True)
class NoisePlan:
    """Pre-drawn integer Laplace noise for every node of an index.

    Parameters
    ----------
    node_noise:
        ``node_noise[level][i]`` is the noise of node ``i`` at ``level``
        (level 0 = leaves, last level = root).
    epsilon:
        The publication budget the plan consumes.
    per_level_scale:
        Laplace scale ``b`` used at each level (1 / (ε / height)).
    """

    node_noise: tuple[tuple[int, ...], ...]
    epsilon: float
    per_level_scale: float

    @property
    def leaf_noise(self) -> tuple[int, ...]:
        """Noise assigned to each leaf, in offset order."""
        return self.node_noise[0]

    @property
    def total_dummies(self) -> int:
        """Total dummy records implied by positive leaf noise."""
        return sum(max(0, noise) for noise in self.leaf_noise)

    @property
    def total_removals(self) -> int:
        """Total record removals implied by negative leaf noise."""
        return sum(max(0, -noise) for noise in self.leaf_noise)


def draw_noise_plan(
    tree: IndexTree, epsilon: float, rng: random.Random | None = None
) -> NoisePlan:
    """Sample a :class:`NoisePlan` for the given tree shape and budget.

    Every node at every level gets independent integer Laplace noise with
    per-level budget ε / height (sensitivity 1 per level).
    """
    level_epsilon = per_level_epsilon(epsilon, tree.height)
    mechanism = LaplaceMechanism(level_epsilon, sensitivity=1.0, rng=rng)
    # This is the sanctioned noise-plan layer: ε arrives pre-split by
    # per_level_epsilon, and every caller draws at the budget the
    # accountant charges.
    node_noise = tuple(
        # fresque-lint: disable=FRQ-P301 -- the sanctioned noise-plan layer
        tuple(mechanism.sample_integer() for _ in level) for level in tree.levels
    )
    return NoisePlan(
        node_noise=node_noise,
        epsilon=epsilon,
        per_level_scale=mechanism.scale,
    )


def noise_bound_per_leaf(plan_scale: float, delta_prime: float) -> int:
    """Per-leaf bound ``s_i`` on |noise| holding with probability δ'.

    Used both to size overflow arrays (negative noise) and, summed over
    leaves and multiplied by α, to size the randomer buffer (Section 5.2).
    """
    mechanism = LaplaceMechanism(1.0 / plan_scale)
    return mechanism.positive_noise_bound(delta_prime)


def perturb_clear_tree(
    tree: IndexTree, plan: NoisePlan
) -> tuple[list[int], list[int]]:
    """Add a noise plan onto a tree holding *true* counts, in place.

    Returns
    -------
    (dummies, removals):
        Per-leaf number of dummy records to add and real records to remove,
        implied by the leaf-level noise.
    """
    if len(plan.node_noise) != len(tree.levels):
        raise ValueError(
            f"noise plan has {len(plan.node_noise)} levels, tree has "
            f"{len(tree.levels)}"
        )
    for level_nodes, level_noise in zip(tree.levels, plan.node_noise):
        if len(level_nodes) != len(level_noise):
            raise ValueError("noise plan level width does not match tree")
        for node, noise in zip(level_nodes, level_noise):
            node.count += noise
    dummies = [max(0, noise) for noise in plan.leaf_noise]
    removals = [max(0, -noise) for noise in plan.leaf_noise]
    return dummies, removals
