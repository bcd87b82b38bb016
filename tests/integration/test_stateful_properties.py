"""Stateful property-based tests (hypothesis state machines).

Two machines hammer the trickiest mutable state:

* :class:`RandomerMachine` — arbitrary interleavings of inserts, restores
  and flushes must conserve every pair, respect the capacity bound, evict
  and order as a reference swap-pop does, and keep the leaf-keyed view
  equal to a filter of the buffer;
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

from repro.core.messages import Pair
from repro.core.randomer import Randomer
from repro.index.template import LeafArrays
from repro.records.record import EncryptedRecord


#: Few leaves, so residents share them and every subset can be checked.
_LEAVES = 4
_LEAF_SETS = [
    [leaf for leaf in range(_LEAVES) if mask >> leaf & 1]
    for mask in range(1 << _LEAVES)
]
_leaf = st.integers(min_value=0, max_value=_LEAVES - 1)


def _pair(serial: int, leaf_offset: int) -> Pair:
    return Pair(
        publication=0,
        leaf_offset=leaf_offset,
        encrypted=EncryptedRecord(
            leaf_offset, serial.to_bytes(8, "little") * 4
        ),
    )


class _ReferenceSwapPop:
    """The randomer's buffer discipline, written out: append, swap a
    uniform victim with the last slot, pop; shuffle on flush."""

    def __init__(self, capacity, rng):
        self.capacity, self.rng, self.buffer = capacity, rng, []

    def insert(self, pair):
        self.buffer.append(pair)
        if len(self.buffer) <= self.capacity:
            return None
        buffer = self.buffer
        victim = self.rng.randrange(len(buffer))
        buffer[victim], buffer[-1] = buffer[-1], buffer[victim]
        return buffer.pop()

    def flush(self):
        self.rng.shuffle(self.buffer)
        drained, self.buffer = self.buffer, []
        return drained


class RandomerMachine(RuleBasedStateMachine):
    """Inserts, evictions, restores and flushes conserve pairs, draw and
    order exactly as the reference swap-pop does — what keeps checkpoints
    and the cloud's arrival order byte-identical — and keep the
    leaf-keyed view equal to a filter of the buffer."""

    @initialize(capacity=st.integers(min_value=1, max_value=30),
                seed=st.integers(min_value=0, max_value=10**6))
    def setup(self, capacity, seed):
        self.randomer = Randomer(capacity, rng=random.Random(seed))
        self.reference = _ReferenceSwapPop(capacity, random.Random(seed))
        self.serial = 0
        self.inserted = 0
        self.released = 0

    def _fresh(self, leaf):
        self.serial += 1
        return _pair(self.serial, leaf)

    @rule(leaf=_leaf)
    def insert(self, leaf):
        pair = self._fresh(leaf)
        evicted = self.randomer.insert(pair)
        assert evicted is self.reference.insert(pair)
        self.inserted += 1
        if evicted is not None:
            self.released += 1

    @rule()
    def flush(self):
        drained = self.randomer.flush()
        assert drained == self.reference.flush()
        self.released += len(drained)

    @rule(leaves=st.lists(_leaf, max_size=30))
    def restore(self, leaves):
        pairs = [
            self._fresh(leaf) for leaf in leaves[: self.randomer.capacity]
        ]
        self.randomer.restore(pairs, released=self.released)
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
    def buffer_order_is_the_reference(self):
        assert self.randomer.residents == tuple(self.reference.buffer)

    @invariant()
    def leaf_view_is_a_filter_of_the_buffer(self):
        residents = self.randomer.residents

        def by_serial(pairs):
            return sorted(pairs, key=lambda pair: pair.encrypted.ciphertext)

        for leaves in _LEAF_SETS:
            assert by_serial(self.randomer.residents_in(leaves)) == by_serial(
                pair for pair in residents if pair.leaf_offset in leaves
            )


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
