"""The randomer (Section 5.2).

A fixed-size buffer that *mixes* real and dummy records so an informed
online attacker — who knows the time distribution of real arrivals — cannot
tell dummy insertions or real-record removals from the stream the cloud
observes.  Behaviour:

* every arriving pair is buffered;
* once the buffer exceeds its capacity, one *uniformly random* resident is
  evicted and released downstream (the trigger function);
* at publishing time the whole buffer is shuffled and flushed.

The capacity must exceed the publication's dummy count with high
probability while not depending on the actual draw — it is computed from
the inverse Laplace CDF in :class:`~repro.core.config.FresqueConfig`.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Iterator

from repro.core.messages import Pair


class Randomer:
    """Fixed-size mixing buffer with uniform random eviction.

    Parameters
    ----------
    capacity:
        Buffer size ``S`` (``α · Σ s_i`` in the paper).
    rng:
        Randomness for evictions and the final shuffle.
    """

    def __init__(self, capacity: int, rng: random.Random | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._rng = rng if rng is not None else random.Random()
        self._buffer: list[Pair] = []
        # Leaf-keyed view of the buffer for query serving: leaf offset ->
        # buffer slots currently holding a pair of that leaf.  Kept in
        # step by insert / restore / flush; it never decides an eviction.
        self._slots: defaultdict[int, set[int]] = defaultdict(set)
        self.released = 0

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def residents(self) -> tuple[Pair, ...]:
        """Pairs currently buffered, in buffer order (a snapshot)."""
        return tuple(self._buffer)

    def residents_in(self, leaves) -> Iterator[Pair]:
        """Buffered pairs whose leaf offset is in ``leaves`` (trusted-side
        view, for query serving), leaf by leaf.

        Costs one lookup per leaf plus the pairs yielded — not a scan of
        the buffer.  Not a snapshot: do not insert while iterating.
        """
        buffer = self._buffer
        slots_of = self._slots.get
        for leaf in leaves:
            for slot in slots_of(leaf, ()):
                yield buffer[slot]

    @property
    def is_full(self) -> bool:
        """Whether the next insert will trigger an eviction."""
        return len(self._buffer) >= self.capacity

    def insert(self, pair: Pair) -> Pair | None:
        """Buffer ``pair``; return the evicted resident if the buffer was full.

        Eviction is uniform over the buffer (including the new arrival),
        an O(1) swap-pop: append, swap the victim with the last slot,
        pop.  The last slot is always the arrival, so the swap-pop is
        done in place — the arrival takes the victim's slot.
        """
        buffer = self._buffer
        size = len(buffer)
        if size < self.capacity:
            buffer.append(pair)
            self._slots[pair.leaf_offset].add(size)
            return None
        victim_index = self._rng.randrange(size + 1)
        self.released += 1
        if victim_index == size:
            return pair
        victim = buffer[victim_index]
        buffer[victim_index] = pair
        slots = self._slots
        slots[victim.leaf_offset].remove(victim_index)
        slots[pair.leaf_offset].add(victim_index)
        return victim

    def restore(self, pairs: list[Pair], released: int = 0) -> None:
        """Reload buffered residents from a checkpoint (crash recovery).

        The mixing rng restarts fresh — eviction choices after a restart
        differ from the lost process's would-have-been draws, which is
        fine: any uniform eviction sequence satisfies Section 5.2.
        """
        if len(pairs) > self.capacity:
            raise ValueError(
                f"{len(pairs)} residents exceed capacity {self.capacity}"
            )
        self._buffer = list(pairs)
        self._slots = defaultdict(set)
        for slot, pair in enumerate(self._buffer):
            self._slots[pair.leaf_offset].add(slot)
        self.released = released

    def flush(self) -> list[Pair]:
        """Shuffle and empty the buffer (end-of-interval publication)."""
        self._rng.shuffle(self._buffer)
        drained = self._buffer
        self._buffer = []
        self._slots = defaultdict(set)
        self.released += len(drained)
        return drained
