"""``shuffled_range`` is ``random.shuffle``, draw for draw.

The Randomer's flush and the merger's per-leaf slot order shuffle an
index list through :func:`repro.core.randomer.shuffled_range`, whose
loop inlines CPython's ``_randbelow_with_getrandbits`` rule.  Every
pinned cloud digest rests on it drawing exactly what
``rng.shuffle(list(range(n)))`` draws: the same permutation, and the
generator left in the same state.  A CPython change to either
``shuffle`` or ``_randbelow`` fails here, on every interpreter CI runs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.randomer import gather, shuffled_range

SIZES = (0, 1, 2, 3, 15, 16, 17, 255, 256, 257, 46848)


def _reference(n: int, rng: random.Random) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


@pytest.mark.parametrize("n", SIZES)
def test_same_permutation_and_state_as_random_shuffle(n):
    for seed in range(20):
        reference, rng = random.Random(seed), random.Random(seed)
        expected = _reference(n, reference)
        assert shuffled_range(n, rng.getrandbits) == expected
        assert rng.getstate() == reference.getstate()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    warmup=st.integers(min_value=0, max_value=40),
    sizes=st.lists(st.integers(min_value=0, max_value=300), max_size=8),
)
def test_any_state_any_sequence_of_sizes(seed, warmup, sizes):
    """From any generator state, a run of shuffles interleaved with
    ``random()`` draws — the merger's per-leaf pattern — draws what
    ``random.shuffle`` does."""
    reference, rng = random.Random(seed), random.Random(seed)
    for generator in (reference, rng):
        for _ in range(warmup):
            generator.random()
    for n in sizes:
        assert reference.random() == rng.random()
        assert shuffled_range(n, rng.getrandbits) == _reference(n, reference)
    assert rng.getstate() == reference.getstate()


def test_shuffle_still_draws_through_randbelow_with_getrandbits():
    """The inlined rule is the one ``random.Random`` uses."""
    assert (
        random.Random._randbelow is random.Random._randbelow_with_getrandbits
    )


class TestGather:
    @pytest.mark.parametrize(
        "column", [(5, 6, 7), [5, 6, 7], bytearray(b"\x05\x06\x07")]
    )
    def test_every_size_gives_a_tuple(self, column):
        assert gather([], column) == ()
        assert gather([2], column) == (7,)
        assert gather([2, 0], column) == (7, 5)
        assert gather([1, 2, 0], column) == (6, 7, 5)
