"""FRESQUE deployment configuration.

Gathers every knob of Section 7.1 — domain and bin interval, fanout,
privacy budget ε, the δ/δ' probabilities, the randomer coefficient α, the
publishing time interval and the computing-node count — and derives the
quantities the components need: the per-level noise scale, the per-leaf
noise bound ``s_i``, the overflow-array capacity and the randomer buffer
size ``S = α · Σ s_i`` (Section 5.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.index.domain import AttributeDomain
from repro.index.tree import expected_height
from repro.privacy.laplace import laplace_inverse_cdf
from repro.records.schema import Schema


class ConfigError(ValueError):
    """Raised for inconsistent FRESQUE configurations."""


@dataclass(frozen=True)
class FresqueConfig:
    """Static configuration of a FRESQUE deployment.

    Parameters
    ----------
    schema:
        Relation schema of the ingested records.
    domain:
        Binned domain of the indexed attribute.
    num_computing_nodes:
        Number of parser/encrypter workers (the paper sweeps 2–12).
    epsilon:
        Privacy budget per publication (paper default 1.0).
    alpha:
        Randomer buffer coefficient α ≥ 2 (paper default 2).
    delta:
        Probability that overflow arrays are large enough (paper: 99%).
    delta_prime:
        Probability used for the buffer-size bound δ' (paper: 99%).
    fanout:
        Index branching factor (paper: 16).
    publish_interval:
        Publishing time interval in seconds (paper: 60).
    batch_size:
        Records the dispatcher accumulates before forwarding one
        :class:`~repro.core.messages.RawBatch` (1 = per-record
        dispatch, today's behaviour, through the same code path).
    max_batch_delay:
        Seconds a partially filled batch may wait before it is flushed
        anyway, bounding the ingest latency batching adds.  Both batch
        knobs are fixed for the deployment's lifetime: the dispatcher
        flushes at exactly these values (docs/BATCHING.md).
    deterministic_ivs:
        When true, computing nodes and the merger derive every IV from
        the record's pipeline-wide identity (the dispatch ordinal stamped
        on :class:`~repro.core.messages.RawBatch`, or the merger's
        per-publication padding counter) via the cipher's seeded-encrypt
        API instead of a process-local counter.  The field selects IVs
        only: the ciphertext stream then no longer depends on which
        computing node encrypted which record, the property the
        scheduled and TCP cells of the conformance matrix rely on for
        byte identity with the synchronous system (docs/RUNTIMES.md).
        Off by default: the runtimes keep the historical counter IVs.
    """

    schema: Schema
    domain: AttributeDomain
    num_computing_nodes: int = 4
    epsilon: float = 1.0
    alpha: float = 2.0
    delta: float = 0.99
    delta_prime: float = 0.99
    fanout: int = 16
    publish_interval: float = 60.0
    batch_size: int = 1
    max_batch_delay: float = 0.05
    deterministic_ivs: bool = False
    _height: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.num_computing_nodes < 1:
            raise ConfigError("at least one computing node is required")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.alpha < 2:
            raise ConfigError(
                f"the paper requires alpha >= 2, got {self.alpha} "
                "(a smaller buffer can leak dummy positions, Section 5.2)"
            )
        if not 0 < self.delta < 1 or not 0 < self.delta_prime < 1:
            raise ConfigError("delta and delta_prime must lie in (0, 1)")
        if self.publish_interval <= 0:
            raise ConfigError("publish interval must be positive")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be at least 1, got {self.batch_size}"
            )
        if self.max_batch_delay <= 0:
            raise ConfigError(
                f"max_batch_delay must be positive, got {self.max_batch_delay}"
            )
        object.__setattr__(
            self,
            "_height",
            expected_height(self.domain.num_leaves, self.fanout),
        )

    @property
    def index_height(self) -> int:
        """Levels of the index tree (leaves included)."""
        return self._height

    @property
    def per_level_epsilon(self) -> float:
        """Budget each index level receives (ε / height)."""
        return self.epsilon / self._height

    @property
    def noise_scale(self) -> float:
        """Laplace scale b = 1 / (ε / height) of every count's noise."""
        return 1.0 / self.per_level_epsilon

    @property
    def per_leaf_noise_bound(self) -> int:
        """``s_i``: |noise| of one leaf, exceeded with probability 1 - δ'."""
        return max(
            0,
            math.ceil(laplace_inverse_cdf(self.delta_prime, self.noise_scale)),
        )

    @property
    def overflow_capacity(self) -> int:
        """Fixed capacity of each leaf's overflow array (bound at δ)."""
        return max(
            0, math.ceil(laplace_inverse_cdf(self.delta, self.noise_scale))
        )

    @property
    def max_dummy_bound(self) -> int:
        """``T = Σ s_i``: probabilistic bound on a publication's dummies."""
        return self.per_leaf_noise_bound * self.domain.num_leaves

    @property
    def randomer_buffer_size(self) -> int:
        """``S = α · T``: the randomer's fixed buffer capacity.

        Never depends on the actual number of dummies drawn (requirement
        (*) of Section 5.2) and exceeds it with probability ≥ δ'
        (requirement (**)).
        """
        return max(1, math.ceil(self.alpha * self.max_dummy_bound))
