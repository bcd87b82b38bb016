"""Informed-online-attacker simulation (Sections 2.1, 5.2, 6).

The informed online attacker observes when each record reaches the cloud
and knows the time distribution of *real* arrivals.  Records showing up at
times where no real data should exist are, absent countermeasures, dummies
with certainty — leaking the positive noise values.  The randomer's mixing
buffer destroys that certainty.

:func:`simulate_interval` replays one publishing interval through a
randomer of configurable size (size 1 ≡ no randomer, the paper's extreme
case) and :class:`InformedAttacker` mounts the paper's Figure 7 attack:
classify every record released during the known quiet period as dummy.
The measured identification rate and precision quantify the leak — the
randomer-sizing experiment shows both collapsing once the buffer exceeds
the dummy count (the ``α ≥ 2`` rule).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.randomer import Randomer


@dataclass(frozen=True)
class ObservedRelease:
    """One record arrival as the cloud (attacker) sees it."""

    time: float
    is_dummy: bool  # ground truth, hidden from the attacker
    from_flush: bool


@dataclass(frozen=True)
class AttackOutcome:
    """How well the informed attacker did on one interval.

    Parameters
    ----------
    dummies_identified:
        Dummies the attacker flagged (correct guesses).
    reals_misflagged:
        Real records wrongly flagged as dummies.
    total_dummies:
        Dummies in the interval (for the identification rate).
    """

    dummies_identified: int
    reals_misflagged: int
    total_dummies: int

    @property
    def identification_rate(self) -> float:
        """Fraction of dummies the attacker confidently identified."""
        if self.total_dummies == 0:
            return 0.0
        return self.dummies_identified / self.total_dummies

    @property
    def precision(self) -> float:
        """Fraction of the attacker's flags that were actually dummies."""
        flagged = self.dummies_identified + self.reals_misflagged
        if flagged == 0:
            return 0.0
        return self.dummies_identified / flagged


def simulate_interval(
    n_real: int,
    n_dummies: int,
    buffer_size: int,
    quiet_fraction: float = 0.3,
    rng: random.Random | None = None,
) -> list[ObservedRelease]:
    """Replay one interval through a randomer and record the cloud's view.

    Real records arrive uniformly over the *active* part of the interval
    ``[quiet_fraction, 1)``; dummies are scheduled uniformly over the whole
    interval (as FRESQUE's dispatcher does).  A ``buffer_size`` of 1 is the
    degenerate no-randomer case: every insert immediately evicts.
    """
    if not 0 <= quiet_fraction < 1:
        raise ValueError("quiet fraction must be in [0, 1)")
    clock = rng if rng is not None else random.Random()
    # (arrival time, dummy flag); the leaf and the ciphertext play no
    # part in what the attacker observes.
    arrivals: list[tuple[float, bool]] = []
    for _ in range(n_real):
        time = quiet_fraction + clock.random() * (1.0 - quiet_fraction)
        arrivals.append((time, False))
    for _ in range(n_dummies):
        arrivals.append((clock.random(), True))
    arrivals.sort(key=lambda item: item[0])

    randomer = Randomer(buffer_size, rng=clock)
    observed: list[ObservedRelease] = []
    for time, dummy in arrivals:
        # One pair at a time (a batch of one): each release is observed
        # at the arrival time that triggered it.
        _, _, released = randomer.insert_batch(
            (0,), (b"\x01" * 32,), bytes((dummy,))
        )
        for is_dummy in released:
            observed.append(
                ObservedRelease(
                    time=time, is_dummy=bool(is_dummy), from_flush=False
                )
            )
    _, _, flushed = randomer.flush()
    for is_dummy in flushed:
        observed.append(
            ObservedRelease(time=1.0, is_dummy=bool(is_dummy), from_flush=True)
        )
    return observed


class InformedAttacker:
    """Knows the real-data time distribution; flags improbable arrivals.

    Parameters
    ----------
    quiet_until:
        The attacker's background knowledge: no real record arrives before
        this fraction of the interval.
    """

    def __init__(self, quiet_until: float = 0.3):
        self.quiet_until = quiet_until

    def attack(self, observed: list[ObservedRelease]) -> AttackOutcome:
        """Classify quiet-period releases as dummies and score the attack.

        End-of-interval flush releases are not flagged — the attacker knows
        the whole buffer is published then, real and dummy mixed.
        """
        identified = 0
        misflagged = 0
        total_dummies = sum(1 for release in observed if release.is_dummy)
        for release in observed:
            flagged = not release.from_flush and release.time < self.quiet_until
            if not flagged:
                continue
            if release.is_dummy:
                identified += 1
            else:
                misflagged += 1
        return AttackOutcome(
            dummies_identified=identified,
            reals_misflagged=misflagged,
            total_dummies=total_dummies,
        )


def advantage_vs_buffer(
    n_real: int,
    n_dummies: int,
    buffer_sizes: list[int],
    quiet_fraction: float = 0.3,
    trials: int = 5,
    seed: int = 0,
) -> dict[int, float]:
    """Average dummy-identification rate for each buffer size.

    The randomer-security curve: ≈1 identification at buffer size 1 (no
    randomer), dropping to 0 once the buffer safely exceeds the dummy
    count.
    """
    results: dict[int, float] = {}
    for size in buffer_sizes:
        total = 0.0
        for trial in range(trials):
            rng = random.Random(seed * 1000 + size * 17 + trial)
            observed = simulate_interval(
                n_real, n_dummies, size, quiet_fraction, rng=rng
            )
            outcome = InformedAttacker(quiet_fraction).attack(observed)
            total += outcome.identification_rate
        results[size] = total / trials
    return results
