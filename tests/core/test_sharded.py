"""Sharded checking-node extension tests."""

import pytest

from repro.core.sharded import (
    ShardedFresqueSystem,
    shard_buffer_size,
    shard_of,
    sharded_capacity,
)
from repro.core.system import FresqueSystem
from repro.datasets.flu import FluSurveyGenerator
from repro.records.serialize import parse_raw_line
from repro.simulation.costs import GOWALLA_COSTS


class TestSharding:
    def test_shard_of_partitions_leaves(self):
        owners = [shard_of(leaf, 3) for leaf in range(9)]
        assert owners == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_shard_buffers_sum_to_unsharded(self, flu_config):
        total = sum(
            shard_buffer_size(flu_config, shard, 4) for shard in range(4)
        )
        # Within rounding (one ceil per shard) of the unsharded size.
        assert flu_config.randomer_buffer_size <= total
        assert total <= flu_config.randomer_buffer_size + 4


class TestShardedSystem:
    def test_end_to_end_matches_unsharded_semantics(
        self, flu_config, fast_cipher
    ):
        generator = FluSurveyGenerator(seed=55)
        lines = list(generator.raw_lines(1000))
        sharded = ShardedFresqueSystem(
            flu_config, fast_cipher, num_checking_shards=3, seed=4
        )
        sharded.start()
        matched = sharded.run_publication(lines)
        schema = flu_config.schema
        truth = {parse_raw_line(line, schema).values for line in lines}
        result = sharded.query(340, 420)
        got = {record.values for record in result.records}
        assert got <= truth
        assert len(got) >= 0.9 * len(truth)
        assert matched > 900

    def test_single_shard_equals_baseline_counts(self, flu_config, fast_cipher):
        """One shard must publish exactly what the unsharded system does
        under the same seed."""
        generator = FluSurveyGenerator(seed=56)
        lines = list(generator.raw_lines(500))
        baseline = FresqueSystem(flu_config, fast_cipher, seed=9)
        baseline.start()
        summary = baseline.run_publication(lines)
        sharded = ShardedFresqueSystem(
            flu_config, fast_cipher, num_checking_shards=1, seed=9
        )
        sharded.start()
        matched = sharded.run_publication(lines)
        assert matched == summary.published_pairs

    def test_index_counts_complete_across_shards(self, flu_config, fast_cipher):
        """Every leaf's count must be assembled from exactly one shard."""
        generator = FluSurveyGenerator(seed=57)
        lines = list(generator.raw_lines(800))
        system = ShardedFresqueSystem(
            flu_config, fast_cipher, num_checking_shards=4, seed=2
        )
        system.start()
        system.run_publication(lines)
        schema = flu_config.schema
        domain = flu_config.domain
        counts = [0] * domain.num_leaves
        for line in lines:
            record = parse_raw_line(line, schema)
            counts[domain.leaf_offset(record.indexed_value(schema))] += 1
        dataset = system.cloud.engine.published[0]
        for offset, leaf in enumerate(dataset.tree.leaves):
            noise = leaf.count - counts[offset]
            assert float(noise).is_integer()
            # Pointer consistency for non-negative leaves.
            pointers = len(dataset.pointers.ordinals(offset))
            if leaf.count >= 0:
                assert pointers == leaf.count

    def test_validation(self, flu_config, fast_cipher):
        with pytest.raises(ValueError):
            ShardedFresqueSystem(
                flu_config, fast_cipher, num_checking_shards=0
            )

    def test_multiple_publications(self, flu_config, fast_cipher):
        generator = FluSurveyGenerator(seed=58)
        system = ShardedFresqueSystem(
            flu_config, fast_cipher, num_checking_shards=2, seed=3
        )
        system.start()
        system.run_publication(list(generator.raw_lines(200)))
        system.run_publication(list(generator.raw_lines(200)))
        assert len(system.cloud.engine.published) == 2


class TestShardedCapacity:
    def test_removes_gowalla_ceiling(self):
        """Two checking shards lift the Gowalla 165k ceiling."""
        unsharded = sharded_capacity(GOWALLA_COSTS, 12, 1)
        sharded = sharded_capacity(GOWALLA_COSTS, 12, 2)
        assert unsharded == pytest.approx(
            GOWALLA_COSTS.fresque_capacity(12)
        )
        assert sharded > unsharded
        # With 2 shards the dispatcher becomes the binding constraint.
        assert sharded == pytest.approx(1.0 / GOWALLA_COSTS.t_dispatch)

    def test_dispatch_is_final_ceiling(self):
        assert sharded_capacity(GOWALLA_COSTS, 64, 8) == pytest.approx(
            1.0 / GOWALLA_COSTS.t_dispatch
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            sharded_capacity(GOWALLA_COSTS, 0, 1)
        with pytest.raises(ValueError):
            sharded_capacity(GOWALLA_COSTS, 1, 0)
