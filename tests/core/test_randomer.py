"""Randomer buffer tests (the column API; the row-list reference it is
checked against lives in ``test_randomer_oracle.py``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.randomer import Randomer


def _ciphertext(index: int) -> bytes:
    return index.to_bytes(4, "little") * 8


def _insert(randomer: Randomer, index: int, dummy: bool = False) -> list[int]:
    """Insert pair ``index`` (a batch of one); the leaves it released."""
    leaves, ciphertexts, dummies = randomer.insert_batch(
        (index,), (_ciphertext(index),), bytes((dummy,))
    )
    assert len(leaves) == len(ciphertexts) == len(dummies) <= 1
    assert ciphertexts == [_ciphertext(leaf) for leaf in leaves]
    return leaves


class TestRandomer:
    def test_no_release_until_full(self):
        randomer = Randomer(5, rng=random.Random(1))
        for index in range(5):
            assert _insert(randomer, index) == []
        assert len(randomer) == 5 == randomer.capacity

    def test_release_after_full(self):
        randomer = Randomer(3, rng=random.Random(1))
        for index in range(3):
            _insert(randomer, index)
        assert len(_insert(randomer, 3)) == 1
        assert len(randomer) == 3

    def test_capacity_one_is_degenerate(self):
        # Buffer size 1: inserting the second pair always evicts one —
        # the "no randomer" extreme the paper warns about.
        randomer = Randomer(1, rng=random.Random(1))
        assert _insert(randomer, 0) == []
        assert len(_insert(randomer, 1)) == 1

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Randomer(0)

    def test_flush_returns_everything(self):
        randomer = Randomer(10, rng=random.Random(3))
        for index in range(7):
            _insert(randomer, index, dummy=bool(index % 2))
        leaves, ciphertexts, dummies = randomer.flush()
        assert len(leaves) == 7
        assert len(randomer) == 0
        assert set(leaves) == set(range(7))
        # Every column went through the same permutation.
        assert ciphertexts == [_ciphertext(leaf) for leaf in leaves]
        assert dummies == bytes(leaf % 2 for leaf in leaves)

    def test_flush_shuffles(self):
        orders = set()
        for seed in range(20):
            randomer = Randomer(10, rng=random.Random(seed))
            for index in range(10):
                _insert(randomer, index)
            orders.add(tuple(randomer.flush()[0]))
        assert len(orders) > 10

    def test_eviction_is_uniform(self):
        """Each resident (including the newcomer) must be evicted with
        roughly equal probability — the mixing property."""
        counts = {i: 0 for i in range(4)}
        trials = 4000
        for seed in range(trials):
            randomer = Randomer(3, rng=random.Random(seed))
            for index in range(3):
                _insert(randomer, index)
            (evicted,) = _insert(randomer, 3)
            counts[evicted] += 1
        for count in counts.values():
            assert count == pytest.approx(trials / 4, rel=0.2)

    def test_released_counter(self):
        randomer = Randomer(2, rng=random.Random(1))
        for index in range(3):
            _insert(randomer, index)
        randomer.flush()
        assert randomer.released == 3

    def test_restore_checks_capacity_and_column_lengths(self):
        randomer = Randomer(2, rng=random.Random(1))
        with pytest.raises(ValueError, match="exceed capacity"):
            randomer.restore((0, 1, 2), (b"a", b"b", b"c"), bytes(3))
        with pytest.raises(ValueError, match="differ in length"):
            randomer.restore((0, 1), (b"a",), bytes(2))
        with pytest.raises(ValueError, match="differ in length"):
            randomer.restore((0, 1), (b"a", b"b"), bytes(1))
        assert len(randomer) == 0
        randomer.restore((0, 1), (b"a", b"b"), bytes(2), released=5)
        assert randomer.columns() == ((0, 1), (b"a", b"b"), bytes(2))
        assert randomer.released == 5


@settings(max_examples=40)
@given(
    capacity=st.integers(min_value=1, max_value=50),
    inserts=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_conservation_property(capacity, inserts, seed):
    """No pair is ever lost or duplicated by the randomer."""
    randomer = Randomer(capacity, rng=random.Random(seed))
    released = []
    for index in range(inserts):
        released.extend(_insert(randomer, index))
    released.extend(randomer.flush()[0])
    assert len(released) == inserts
    assert set(released) == set(range(inserts))
