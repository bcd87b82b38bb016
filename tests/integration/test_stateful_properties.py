"""Stateful property-based tests (hypothesis state machines).

Two machines hammer the trickiest mutable state:

* :class:`RandomerMachine` — arbitrary interleavings of batch inserts,
  restores and flushes must conserve every pair, respect the capacity
  bound, evict and order as the reference row-list swap-pop of
  ``tests/core/test_randomer_oracle.py`` does, and keep the leaf-keyed
  view equal to a filter of the buffer;
* :class:`LeafArraysMachine` — arbitrary check/update sequences must keep
  AL equal to the number of arrivals per leaf and consume negative noise
  exactly once per removal.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.randomer import Randomer
from repro.index.template import LeafArrays
from tests.columns import columns_of, rows_of
from tests.core.test_randomer_oracle import (
    LEAVES,
    ReferenceSwapPop,
    assert_same_state,
)

_leaf = st.integers(min_value=0, max_value=LEAVES - 1)


class RandomerMachine(RuleBasedStateMachine):
    """Inserts, evictions, restores and flushes conserve pairs, draw and
    order exactly as the reference row-list swap-pop does — what keeps
    checkpoints and the cloud's arrival order byte-identical — and keep
    the leaf-keyed view equal to a filter of the buffer."""

    @initialize(capacity=st.integers(min_value=1, max_value=30),
                seed=st.integers(min_value=0, max_value=10**6))
    def setup(self, capacity, seed):
        self.randomer = Randomer(capacity, rng=random.Random(seed))
        self.reference = ReferenceSwapPop(capacity, random.Random(seed))
        self.serial = 0
        self.inserted = 0
        self.released = 0

    def _fresh(self, leaf, dummy=False):
        self.serial += 1
        return (leaf, self.serial.to_bytes(8, "little") * 4, dummy)

    @rule(arrivals=st.lists(st.tuples(_leaf, st.booleans()), max_size=8))
    def insert(self, arrivals):
        batch = [self._fresh(leaf, dummy) for leaf, dummy in arrivals]
        evicted = rows_of(*self.randomer.insert_batch(*columns_of(batch)))
        assert evicted == [
            pair
            for pair in map(self.reference.insert, batch)
            if pair is not None
        ]
        self.inserted += len(batch)
        self.released += len(evicted)

    @rule()
    def flush(self):
        drained = rows_of(*self.randomer.flush())
        assert drained == self.reference.flush()
        self.released += len(drained)

    @rule(leaves=st.lists(_leaf, max_size=30))
    def restore(self, leaves):
        pairs = [
            self._fresh(leaf) for leaf in leaves[: self.randomer.capacity]
        ]
        self.randomer.restore(*columns_of(pairs), released=self.released)
        self.reference.buffer = list(pairs)
        self.inserted = self.released + len(pairs)

    @invariant()
    def conservation(self):
        assert self.inserted == self.released + len(self.randomer)
        assert self.randomer.released == self.released

    @invariant()
    def capacity_respected(self):
        assert len(self.randomer) <= self.randomer.capacity

    @invariant()
    def buffer_order_and_leaf_view_are_the_reference(self):
        assert_same_state(self.randomer, self.reference)


class LeafArraysMachine(RuleBasedStateMachine):
    """AL/ALN bookkeeping under arbitrary arrival orders."""

    @initialize(
        noise=st.lists(
            st.integers(min_value=-5, max_value=5), min_size=1, max_size=8
        )
    )
    def setup(self, noise):
        self.initial_noise = list(noise)
        self.arrays = LeafArrays(noise)
        self.arrivals = [0] * len(noise)
        self.removed = [0] * len(noise)

    @rule(data=st.data())
    def arrive(self, data):
        offset = data.draw(
            st.integers(min_value=0, max_value=len(self.arrivals) - 1)
        )
        result = self.arrays.check_and_update(offset)
        self.arrivals[offset] += 1
        if result.removed:
            self.removed[offset] += 1

    @invariant()
    def al_counts_every_arrival(self):
        assert self.arrays.al == self.arrivals

    @invariant()
    def removals_bounded_by_negative_noise(self):
        for offset, noise in enumerate(self.initial_noise):
            budget = max(0, -noise)
            assert self.removed[offset] == min(budget, self.arrivals[offset])

    @invariant()
    def aln_converges_to_nonnegative(self):
        for offset, noise in enumerate(self.initial_noise):
            expected = min(noise + self.removed[offset], max(noise, 0))
            if noise < 0:
                expected = noise + self.removed[offset]
            else:
                expected = noise
            assert self.arrays.aln[offset] == expected


TestRandomerStateful = RandomerMachine.TestCase
TestRandomerStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)

TestLeafArraysStateful = LeafArraysMachine.TestCase
TestLeafArraysStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
