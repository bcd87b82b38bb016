"""Declarative benchmark scenarios and the matrix that expands them.

A :class:`Scenario` is one concrete benchmark run, described entirely by
data — no drive logic, no gate code.  A :class:`MatrixSpec` is the
cartesian product of axes over a base scenario, with declarative
``exclude`` constraints (combinations that are meaningless or priced out
of the tier) and hand-written ``include`` rows.  The same expansion
doubles as the cross-runtime *conformance* matrix: every scenario row
names exactly one deployment whose cloud-state fingerprint can be
compared against the sync baseline.

Everything round-trips through plain dicts (``to_dict``/``from_dict``)
so specs can be embedded in scorecard artifacts and diffed across runs.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

#: Deployment runtimes the fabric can build (docs/RUNTIMES.md).
RUNTIMES = ("sync", "scheduled", "tcp")

#: Durability modes: in-memory collector vs write-ahead journal + ledger.
DURABILITIES = ("memory", "durable")

#: Workload shapes the runner knows how to drive (docs/BENCHMARKS.md).
WORKLOADS = (
    "ingest",
    "publication",
    "burst-trickle",
    "conformance",
)


class SpecError(ValueError):
    """Raised for malformed scenarios or matrix specs."""


@dataclass(frozen=True)
class Scenario:
    """One concrete benchmark run, fully described by data.

    Parameters
    ----------
    name:
        Unique id within the bench (usually derived from the axes).
    bench:
        BENCH family the run belongs to (``BENCH_<bench>.json``).
    workload:
        Drive shape, one of :data:`WORKLOADS` — the runner owns the
        loop, the scenario owns every knob.
    dataset:
        Named arrival stream (:mod:`repro.benchfab.datasets`).
    records:
        Records per publication interval.
    publications:
        Publication intervals driven.
    runtime:
        Deployment, one of :data:`RUNTIMES`.
    workers:
        Computing-node count.
    batch_size:
        Dispatcher batch size.
    durability:
        ``memory`` or ``durable`` (write-ahead journal + ε ledger).
    sync_every / checkpoint_every:
        Journal fsync cadence and checkpoint cadence when durable.
    fault_plan:
        Named fault plan (:data:`repro.benchfab.runner.FAULT_PLANS`),
        empty for a healthy run.
    deterministic_ivs:
        Ordinal-keyed IVs — required for cross-runtime byte identity.
    seed / stream_seed:
        System seed and arrival-stream seed.
    params:
        Workload-specific knobs as a sorted tuple of pairs (kept
        hashable; see :meth:`param`).
    drift:
        Recorded behaviour drift between a ported script's old gate and
        the fabric rule — never silently changed, always written here.
    """

    name: str
    bench: str
    workload: str = "publication"
    dataset: str = "flu"
    records: int = 250
    publications: int = 1
    runtime: str = "sync"
    workers: int = 3
    batch_size: int = 1
    durability: str = "memory"
    sync_every: int = 256
    checkpoint_every: int = 0
    fault_plan: str = ""
    deterministic_ivs: bool = False
    seed: int = 9
    stream_seed: int = 71
    params: tuple[tuple[str, Any], ...] = ()
    drift: str = ""

    def __post_init__(self) -> None:
        if self.runtime not in RUNTIMES:
            raise SpecError(f"unknown runtime {self.runtime!r}")
        if self.durability not in DURABILITIES:
            raise SpecError(f"unknown durability {self.durability!r}")
        if self.workload not in WORKLOADS:
            raise SpecError(f"unknown workload {self.workload!r}")
        if self.records < 0 or self.publications < 1:
            raise SpecError(
                f"bad stream shape: records={self.records}, "
                f"publications={self.publications}"
            )
        if self.batch_size < 1:
            raise SpecError(f"batch_size must be >= 1, got {self.batch_size}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    def param(self, key: str, default: Any = None) -> Any:
        """Look up one workload-specific knob."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    #: Axes always present in the point key, even at their defaults —
    #: rules must be able to select ``batch_size=1`` or ``runtime=sync``
    #: without the key shape depending on which cell of a sweep it is.
    _CORE_AXES = ("workload", "runtime", "durability", "batch_size")

    def axes(self) -> dict[str, Any]:
        """The identity of this run: the core axes plus every other
        non-default scalar field.

        This is the scorecard's point key — rules select points by a
        subset of it, so it must stay small, stable and hashable.
        """
        out: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            if f.name in ("name", "bench", "params", "drift"):
                continue
            value = getattr(self, f.name)
            if f.name in self._CORE_AXES or value != f.default:
                out[f.name] = value
        out.update(dict(self.params))
        return out

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for embedding in scorecard artifacts."""
        out = dataclasses.asdict(self)
        out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown scenario fields: {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["params"] = tuple(sorted(dict(data.get("params", {})).items()))
        return cls(**kwargs)


def _matches(row: Mapping[str, Any], constraint: Mapping[str, Any]) -> bool:
    """True when every constraint key is present in the row and equal."""
    return all(row.get(key) == value for key, value in constraint.items())


@dataclass(frozen=True)
class MatrixSpec:
    """A scenario matrix: axes product over a base row, as data.

    ``base`` holds shared scenario fields; ``axes`` maps field names to
    the values swept (non-field keys land in ``Scenario.params``);
    ``exclude`` drops any product row matching one of its constraint
    dicts; ``include`` appends hand-written rows on top.  ``expand()``
    yields concrete, uniquely named :class:`Scenario` records.
    """

    bench: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    exclude: tuple[Mapping[str, Any], ...] = ()
    include: tuple[Mapping[str, Any], ...] = ()

    def _row_name(self, row: Mapping[str, Any]) -> str:
        parts = [f"{key}={row[key]}" for key in sorted(row) if key != "name"]
        return "/".join([self.bench] + parts) if parts else self.bench

    def _build(self, row: dict[str, Any]) -> Scenario:
        fields = {f.name for f in dataclasses.fields(Scenario)}
        merged: dict[str, Any] = {**self.base, **row}
        params = dict(merged.pop("params", {}))
        scenario_kwargs: dict[str, Any] = {}
        for key, value in merged.items():
            if key in fields:
                scenario_kwargs[key] = value
            else:
                params[key] = value
        scenario_kwargs["params"] = tuple(sorted(params.items()))
        scenario_kwargs.setdefault("name", self._row_name(row))
        scenario_kwargs["bench"] = self.bench
        return Scenario(**scenario_kwargs)

    def expand(self) -> tuple[Scenario, ...]:
        """Expand the product, apply excludes, append includes."""
        names = sorted(self.axes)
        rows: list[dict[str, Any]] = []
        if names:
            for values in itertools.product(
                *(self.axes[name] for name in names)
            ):
                row = dict(zip(names, values))
                if any(_matches(row, block) for block in self.exclude):
                    continue
                rows.append(row)
        elif not self.include:
            rows.append({})
        rows.extend(dict(extra) for extra in self.include)
        scenarios = tuple(self._build(row) for row in rows)
        seen: set[str] = set()
        for scenario in scenarios:
            if scenario.name in seen:
                raise SpecError(f"duplicate scenario name {scenario.name!r}")
            seen.add(scenario.name)
        return scenarios

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for embedding in artifacts and docs."""
        return {
            "bench": self.bench,
            "base": dict(self.base),
            "axes": {key: list(values) for key, values in self.axes.items()},
            "exclude": [dict(block) for block in self.exclude],
            "include": [dict(row) for row in self.include],
        }
