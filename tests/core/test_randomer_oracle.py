"""The column randomer against the row-list randomer it replaced.

The reference below is the buffer discipline of Section 5.2 written out
over a list of pairs — append, swap a uniform victim with the last slot,
pop; shuffle on flush.  :class:`~repro.core.randomer.Randomer` keeps the
same buffer as three columns, overwrites the victim's slot in place and
shuffles an index list; with the same seed it must make the same draws:
same released stream whatever the batch cuts, same flush order, same
buffer order (what a checkpoint records) and same leaf view.  The
hypothesis state machine in
``tests/integration/test_stateful_properties.py`` drives the same oracle
through arbitrary interleavings.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.randomer import Randomer
from tests.columns import columns_of, rows_of

#: Few leaves, so residents share them and every subset can be checked.
LEAVES = 4
LEAF_SETS = [
    [leaf for leaf in range(LEAVES) if mask >> leaf & 1]
    for mask in range(1 << LEAVES)
]


class ReferenceSwapPop:
    """The randomer over a row list of ``(leaf, ciphertext, dummy)`` —
    the rows of ``tests/columns.py``."""

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


def assert_same_state(randomer: Randomer, reference: ReferenceSwapPop):
    """Buffer order and the leaf view (all 16 leaf subsets) agree."""
    residents = rows_of(*randomer.columns())
    assert residents == reference.buffer
    for leaves in LEAF_SETS:
        assert sorted(randomer.ciphertexts_in(leaves)) == sorted(
            (leaf, ciphertext)
            for leaf, ciphertext, _ in residents
            if leaf in leaves
        )


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=10**6),
    stream=st.lists(
        st.tuples(st.integers(0, LEAVES - 1), st.booleans()), max_size=120
    ),
    cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=12),
    restored=st.integers(min_value=0, max_value=20),
)
def test_same_seed_same_stream(capacity, seed, stream, cuts, restored):
    """Restore, insert in arbitrary batch cuts (empty ones included),
    flush: released stream, flush order, buffer order and leaf view equal
    the row-list reference's, pair by pair."""
    pairs = [
        (leaf, serial.to_bytes(4, "little"), dummy)
        for serial, (leaf, dummy) in enumerate(stream)
    ]
    randomer = Randomer(capacity, rng=random.Random(seed))
    reference = ReferenceSwapPop(capacity, random.Random(seed))
    # The restore rule: the residents come back in buffer order.
    restored = min(restored, capacity)
    resident, pairs = pairs[:restored], pairs[restored:]
    randomer.restore(*columns_of(resident), released=7)
    reference.buffer = list(resident)
    assert_same_state(randomer, reference)
    released = 7
    position = 0
    for cut in cuts + [len(pairs)]:
        batch = pairs[position : position + cut]
        position += cut
        expected = [
            evicted
            for evicted in map(reference.insert, batch)
            if evicted is not None
        ]
        assert rows_of(*randomer.insert_batch(*columns_of(batch))) == expected
        released += len(expected)
        assert randomer.released == released
        assert len(randomer) <= capacity
        assert_same_state(randomer, reference)
    drained = reference.flush()
    assert rows_of(*randomer.flush()) == drained
    assert randomer.released == released + len(drained)
    assert len(randomer) == 0
    assert_same_state(randomer, reference)

