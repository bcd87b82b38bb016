"""Index template and AL/ALN array tests.

The central invariant (FRESQUE's correctness argument): the index built by
merging a noise-only template with the AL counts must equal the index
PINED-RQ++ builds by updating the template per record — and both must equal
true counts + noise.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.domain import AttributeDomain
from repro.index.perturb import draw_noise_plan
from repro.index.template import (
    IndexTemplate,
    LeafArrays,
    merge_plan_and_counts,
)
from repro.index.tree import IndexTree


@pytest.fixture
def template(small_domain):
    return IndexTemplate(
        small_domain, fanout=4, epsilon=1.0, rng=random.Random(11)
    )


class TestIndexTemplate:
    def test_initial_counts_are_noise(self, template):
        for level_nodes, level_noise in zip(
            template.tree.levels, template.plan.node_noise
        ):
            assert [n.count for n in level_nodes] == list(level_noise)

    def test_requires_plan_or_epsilon(self, small_domain):
        with pytest.raises(ValueError):
            IndexTemplate(small_domain, fanout=4)

    def test_accepts_predrawn_plan(self, small_domain):
        shape = IndexTree(small_domain, fanout=4)
        plan = draw_noise_plan(shape, 1.0, rng=random.Random(2))
        template = IndexTemplate(small_domain, fanout=4, plan=plan)
        assert template.plan is plan
        assert template.epsilon == 1.0

    def test_update_with_record(self, template):
        noise = template.plan.leaf_noise[3]
        template.update_with_record(3)
        assert template.tree.leaves[3].count == noise + 1


class TestLeafArrays:
    def test_initial_state(self):
        arrays = LeafArrays([2, -3, 0])
        assert arrays.al == [0, 0, 0]
        assert arrays.aln == [2, -3, 0]
        assert arrays.num_leaves == 3

    def test_positive_leaf_keeps_record(self):
        arrays = LeafArrays([2, -3, 0])
        result = arrays.check_and_update(0)
        assert not result.removed
        assert arrays.al[0] == 1
        assert arrays.aln[0] == 2  # untouched

    def test_negative_leaf_removes_until_consumed(self):
        arrays = LeafArrays([0, -2, 0])
        assert arrays.check_and_update(1).removed
        assert arrays.check_and_update(1).removed
        assert not arrays.check_and_update(1).removed
        assert arrays.al[1] == 3
        assert arrays.aln[1] == 0
        assert arrays.removed_per_leaf == (0, 2, 0)

    def test_zero_leaf_never_removes(self):
        arrays = LeafArrays([0])
        for _ in range(5):
            assert not arrays.check_and_update(0).removed

    def test_out_of_range_rejected(self):
        arrays = LeafArrays([0, 0])
        with pytest.raises(IndexError):
            arrays.check_and_update(2)
        with pytest.raises(IndexError):
            arrays.check_and_update(-1)

    def test_snapshot_is_copy(self):
        arrays = LeafArrays([0, 0])
        snapshot = arrays.snapshot()
        arrays.check_and_update(0)
        assert snapshot == [0, 0]

    def test_total_real(self):
        arrays = LeafArrays([-1, 1])
        arrays.check_and_update(0)
        arrays.check_and_update(1)
        assert arrays.total_real == 2


class TestMergeEquivalence:
    def test_merge_equals_truth_plus_noise(self, small_domain):
        rng = random.Random(5)
        template = IndexTemplate(small_domain, fanout=4, epsilon=1.0, rng=rng)
        counts = [rng.randrange(20) for _ in range(10)]
        merged = merge_plan_and_counts(
            small_domain, template.plan, counts, fanout=4
        )
        expected = IndexTree(small_domain, fanout=4)
        expected.set_leaf_counts(counts)
        for merged_level, true_level, noise_level in zip(
            merged.levels, expected.levels, template.plan.node_noise
        ):
            for merged_node, true_node, noise in zip(
                merged_level, true_level, noise_level
            ):
                assert merged_node.count == true_node.count + noise

    def test_merge_equals_streaming_updates(self, small_domain):
        """FRESQUE's AL-merge == PINED-RQ++'s per-record template updates."""
        rng = random.Random(6)
        shape = IndexTree(small_domain, fanout=4)
        plan = draw_noise_plan(shape, 1.0, rng=rng)
        streaming = IndexTemplate(small_domain, fanout=4, plan=plan)
        arrays = LeafArrays(plan.leaf_noise)
        offsets = [rng.randrange(10) for _ in range(300)]
        for offset in offsets:
            streaming.update_with_record(offset)
            arrays.check_and_update(offset)
        merged = merge_plan_and_counts(
            small_domain, plan, arrays.snapshot(), fanout=4
        )
        for merged_level, streaming_level in zip(
            merged.levels, streaming.tree.levels
        ):
            assert [n.count for n in merged_level] == [
                n.count for n in streaming_level
            ]

    def test_wrong_count_length_rejected(self, small_domain):
        template = IndexTemplate(
            small_domain, fanout=4, epsilon=1.0, rng=random.Random(1)
        )
        with pytest.raises(ValueError):
            merge_plan_and_counts(
                small_domain, template.plan, [1, 2, 3], fanout=4
            )


@settings(max_examples=30)
@given(
    num_leaves=st.integers(min_value=1, max_value=120),
    fanout=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=1000),
    data=st.data(),
)
def test_merge_equivalence_property(num_leaves, fanout, seed, data):
    """The O(1)-array architecture never changes the published index."""
    domain = AttributeDomain(0, num_leaves, 1)
    rng = random.Random(seed)
    shape = IndexTree(domain, fanout=fanout)
    plan = draw_noise_plan(shape, 1.0, rng=rng)
    counts = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=30),
            min_size=num_leaves,
            max_size=num_leaves,
        )
    )
    streaming = IndexTemplate(domain, fanout=fanout, plan=plan)
    for offset, count in enumerate(counts):
        for _ in range(count):
            streaming.update_with_record(offset)
    merged = merge_plan_and_counts(domain, plan, counts, fanout=fanout)
    for merged_level, streaming_level in zip(
        merged.levels, streaming.tree.levels
    ):
        assert [n.count for n in merged_level] == [
            n.count for n in streaming_level
        ]
