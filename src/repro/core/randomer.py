"""The randomer (Section 5.2).

A fixed-size buffer that *mixes* real and dummy records so an informed
online attacker — who knows the time distribution of real arrivals — cannot
tell dummy insertions or real-record removals from the stream the cloud
observes.  Behaviour:

* every arriving ``<leaf offset, e-record>`` pair is buffered — as one
  slot of three parallel columns (leaf offsets, ciphertexts, dummy flags),
  never as an object of its own;
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
        self.restore((), (), b"")

    def __len__(self) -> int:
        return len(self._leaves)

    def columns(self) -> tuple[tuple[int, ...], tuple[bytes, ...], bytes]:
        """The buffered pairs in buffer order, as ``(leaves, ciphertexts,
        dummies)`` columns (a snapshot)."""
        return tuple(self._leaves), tuple(self._ciphertexts), bytes(self._dummies)

    def ciphertexts_in(self, leaves) -> Iterator[tuple[int, bytes]]:
        """``(leaf offset, ciphertext)`` of the buffered pairs whose leaf
        offset is in ``leaves`` (trusted-side view, for query serving).

        Costs one lookup per leaf plus the pairs yielded — not a scan of
        the buffer.  Not a snapshot: do not insert while iterating.
        """
        ciphertexts = self._ciphertexts
        slots_of = self._slots.get
        for leaf in leaves:
            for slot in slots_of(leaf, ()):
                yield leaf, ciphertexts[slot]

    def insert_batch(
        self, leaves, ciphertexts, dummies
    ) -> tuple[list[int], list[bytes], bytearray]:
        """Buffer a run of pairs in order; return the pairs they evict,
        in release order, as columns.

        An insert into a full buffer evicts uniformly over the buffer
        *and* the arrival: one ``randrange(size + 1)`` draw per insert
        (so the released stream does not depend on the batch cuts), then
        an O(1) swap-pop in place — the arrival takes the victim's slot.
        """
        held_leaves = self._leaves
        held_ciphertexts = self._ciphertexts
        held_dummies = self._dummies
        slots = self._slots
        capacity = self.capacity
        randrange = self._rng.randrange
        out_leaves: list[int] = []
        out_ciphertexts: list[bytes] = []
        out_dummies = bytearray()
        size = len(held_leaves)
        for leaf, ciphertext, dummy in zip(leaves, ciphertexts, dummies):
            if size < capacity:
                held_leaves.append(leaf)
                held_ciphertexts.append(ciphertext)
                held_dummies.append(dummy)
                slots[leaf].add(size)
                size += 1
                continue
            victim = randrange(size + 1)
            if victim < size:
                # Swap the arrival with the victim: the victim is in hand.
                arrival = leaf
                leaf, held_leaves[victim] = held_leaves[victim], leaf
                held = held_ciphertexts[victim]
                held_ciphertexts[victim], ciphertext = ciphertext, held
                dummy, held_dummies[victim] = held_dummies[victim], dummy
                if leaf != arrival:
                    slots[leaf].remove(victim)
                    slots[arrival].add(victim)
            out_leaves.append(leaf)
            out_ciphertexts.append(ciphertext)
            out_dummies.append(dummy)
        self.released += len(out_leaves)
        return out_leaves, out_ciphertexts, out_dummies

    def restore(self, leaves, ciphertexts, dummies, released: int = 0) -> None:
        """Set the buffer to the given residents (crash recovery).

        The mixing rng restarts fresh — eviction choices after a restart
        differ from the lost process's would-have-been draws, which is
        fine: any uniform eviction sequence satisfies Section 5.2.
        """
        if len(leaves) > self.capacity:
            raise ValueError(
                f"{len(leaves)} residents exceed capacity {self.capacity}"
            )
        if not len(leaves) == len(ciphertexts) == len(dummies):
            raise ValueError("resident columns differ in length")
        # Slot i holds the pair (_leaves[i], _ciphertexts[i], _dummies[i]);
        # _slots is the leaf-keyed view for query serving (leaf offset ->
        # slots), kept in step by insert_batch, never deciding an eviction.
        self._leaves = list(leaves)
        self._ciphertexts = list(ciphertexts)
        self._dummies = bytearray(dummies)
        self._slots: defaultdict[int, set[int]] = defaultdict(set)
        for slot, leaf in enumerate(self._leaves):
            self._slots[leaf].add(slot)
        self.released = released

    def flush(self) -> tuple[list[int], list[bytes], bytes]:
        """Shuffle and empty the buffer (end-of-interval publication).

        ``random.shuffle`` consumes draws by length only: every column read
        through one shuffled index list is a shuffled list of pairs.
        """
        order = list(range(len(self._leaves)))
        self._rng.shuffle(order)
        drained = (
            [self._leaves[slot] for slot in order],
            [self._ciphertexts[slot] for slot in order],
            bytes([self._dummies[slot] for slot in order]),
        )
        self.restore((), (), b"", released=self.released + len(order))
        return drained
