"""The PINED-RQ index family: domains, trees, perturbation, templates."""

from repro.index.domain import (
    AttributeDomain,
    DomainError,
    gowalla_domain,
    nasa_domain,
)
from repro.index.overflow import OverflowArray, OverflowError_
from repro.index.perturb import (
    NoisePlan,
    draw_noise_plan,
    noise_bound_per_leaf,
    perturb_clear_tree,
)
from repro.index.query import RangeQuery, TraversalResult, traverse
from repro.index.template import (
    CheckResult,
    IndexTemplate,
    LeafArrays,
    merge_plan_and_counts,
)
from repro.index.tree import IndexNode, IndexTree, expected_height

__all__ = [
    "AttributeDomain",
    "CheckResult",
    "DomainError",
    "IndexNode",
    "IndexTemplate",
    "IndexTree",
    "LeafArrays",
    "NoisePlan",
    "OverflowArray",
    "OverflowError_",
    "RangeQuery",
    "TraversalResult",
    "draw_noise_plan",
    "expected_height",
    "gowalla_domain",
    "merge_plan_and_counts",
    "nasa_domain",
    "noise_bound_per_leaf",
    "perturb_clear_tree",
    "traverse",
]
