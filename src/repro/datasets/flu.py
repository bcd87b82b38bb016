"""Synthetic participatory-surveillance (FluTracking) workload.

The paper's motivating use case (Sections 1 and 8): weekly symptom reports,
indexed by body temperature in tenths of a degree Celsius over [34.0, 42.0]
°C.  Most participants are afebrile (~36.5–37.2 °C); a small fraction runs
a fever, producing the skewed right shoulder an epidemiologist queries
(e.g. ``temperature >= 38.0``).
"""

from __future__ import annotations

from repro.datasets.base import DatasetGenerator
from repro.index.domain import AttributeDomain
from repro.records.record import Record
from repro.records.schema import flu_survey_schema

_SYMPTOMS = (
    "none",
    "cough",
    "fever;cough",
    "sore-throat",
    "fever;myalgia",
    "runny-nose",
)


def flu_domain() -> AttributeDomain:
    """Temperature domain: 34.0–42.0 °C in 0.1 °C bins (80 leaves)."""
    return AttributeDomain(dmin=340, dmax=420, bin_interval=1)


class FluSurveyGenerator(DatasetGenerator):
    """Draws synthetic weekly flu-survey records."""

    PAPER_RECORD_COUNT = 0  # motivating example, not an evaluated dataset

    def __init__(self, seed: int | None = None, week: int = 0, fever_rate: float = 0.06):
        super().__init__(seed)
        if not 0 <= fever_rate <= 1:
            raise ValueError(f"fever rate must be in [0, 1], got {fever_rate}")
        self.week = week
        self.fever_rate = fever_rate

    schema_factory = staticmethod(flu_survey_schema)
    domain_factory = staticmethod(flu_domain)

    def _temperature_dc(self) -> int:
        if self._rng.random() < self.fever_rate:
            value = self._rng.gauss(387, 6)  # febrile mode
        else:
            value = self._rng.gauss(368, 3)  # afebrile mode
        return int(min(max(value, self.domain.dmin), self.domain.dmax))

    def record(self) -> Record:
        participant = f"p{self._rng.randrange(1_000_000):06d}"
        return Record(
            (
                participant,
                self.week,
                self._temperature_dc(),
                self._rng.choice(_SYMPTOMS),
            )
        )
