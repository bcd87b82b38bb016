"""Synthetic Gowalla check-in workload.

Emulates the Gowalla location check-in dataset of the paper's evaluation:
6,442,892 records of three attributes, indexed on the check-in time, whose
domain is cut into 626 one-hour bins.  Check-ins follow a diurnal cycle —
few at night, peaks in the evening — which the generator reproduces with a
sinusoidal intensity over the 626-hour window, preserving the temporal
skew of the real data.

Raw lines are short (~20 bytes), about a quarter of a NASA line.
"""

from __future__ import annotations

import math

from repro.datasets.base import DatasetGenerator
from repro.index.domain import gowalla_domain
from repro.records.record import Record
from repro.records.schema import gowalla_schema


class GowallaGenerator(DatasetGenerator):
    """Draws synthetic Gowalla check-in records."""

    PAPER_RECORD_COUNT = 6_442_892

    schema_factory = staticmethod(gowalla_schema)
    domain_factory = staticmethod(gowalla_domain)

    def _checkin_time(self) -> int:
        """Rejection-sample an hour with diurnal intensity, then jitter."""
        while True:
            hour = self._rng.randrange(626)
            # Evening peak: intensity in [0.2, 1.0] over a 24 h cycle.
            intensity = 0.6 + 0.4 * math.sin(2 * math.pi * (hour % 24 - 14) / 24)
            if self._rng.random() <= intensity:
                break
        second = self._rng.randrange(3600)
        return min(hour * 3600 + second, int(self.domain.dmax))

    def record(self) -> Record:
        return Record(
            (
                self._rng.randrange(200_000),
                self._checkin_time(),
                self._rng.randrange(1_300_000),
            )
        )
