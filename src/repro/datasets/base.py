"""Common infrastructure for the synthetic workload generators.

The paper evaluates on the NASA HTTP log and the Gowalla check-in dataset;
neither is shipped here, so :mod:`repro.datasets` generates synthetic
equivalents with the same schemas, record sizes, domains and distribution
*shapes* (see DESIGN.md, substitutions).  Generators are deterministic
under a seed and can stream arbitrarily many records.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator

from repro.index.domain import AttributeDomain
from repro.records.record import Record
from repro.records.schema import Schema
from repro.records.serialize import render_raw_line


class DatasetGenerator(ABC):
    """Streams synthetic records (and their raw-line encodings).

    Parameters
    ----------
    seed:
        Seed for the generator's private RNG.
    """

    #: Number of records in the real dataset the generator emulates.
    PAPER_RECORD_COUNT: int = 0

    #: Zero-argument factories each subclass names; called once per
    #: generator (every generated line reads the results).
    schema_factory: Callable[[], Schema]
    domain_factory: Callable[[], AttributeDomain]

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed)
        #: Relation schema of the generated records.
        self.schema = self.schema_factory()
        #: Binned domain of the indexed attribute.
        self.domain = self.domain_factory()

    @abstractmethod
    def record(self) -> Record:
        """Draw one synthetic record."""

    def records(self, count: int) -> Iterator[Record]:
        """Stream ``count`` records."""
        for _ in range(count):
            yield self.record()

    def raw_line(self) -> str:
        """Draw one record and render it as the raw line a source sends."""
        return render_raw_line(self.record(), self.schema)

    def raw_lines(self, count: int) -> Iterator[str]:
        """Stream ``count`` raw lines."""
        for _ in range(count):
            yield self.raw_line()

    def average_line_bytes(self, sample: int = 200) -> float:
        """Estimate the average raw-line size (drives the cost model)."""
        probe = type(self)(seed=1234)
        total = sum(len(line) for line in probe.raw_lines(sample))
        return total / sample
