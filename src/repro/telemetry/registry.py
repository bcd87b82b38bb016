"""Thread-safe metrics: counters, gauges and fixed-bucket histograms.

Designed to stay enabled inside the TCP runtime's threads: the hot
path (``Counter.inc``, ``Histogram.observe``) takes no locks.  Each
instrument keeps one *cell* per writer thread, keyed by thread id — a
thread only ever mutates its own cell, and CPython's per-key dict
operations make the cell bookkeeping safe without a mutex.  Reads
aggregate across cells; a read racing a writer may be one update stale,
never corrupt.

A :class:`NullRegistry` hands out shared no-op instruments so
instrumented code pays only an attribute lookup and an empty call when
telemetry is disabled.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass

#: Default duration buckets (seconds): 1 µs … 10 s, roughly log-spaced.
#: Chosen to resolve both Python-scale per-record operations (µs) and
#: whole-publication jobs (ms–s).
DURATION_BUCKETS = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)

#: Default size buckets (bytes / records): 1 … 1M, log-spaced.
SIZE_BUCKETS = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)


class Counter:
    """Monotonic counter with lock-free per-thread increment cells."""

    __slots__ = ("name", "labels", "_cells")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._cells: dict[int, int] = {}

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (only this thread ever writes this cell)."""
        cells = self._cells
        ident = threading.get_ident()
        cells[ident] = cells.get(ident, 0) + amount

    @property
    def value(self) -> int:
        """Aggregated total across all writer threads."""
        while True:
            try:
                return sum(self._cells.values())
            except RuntimeError:
                # A writer registered a new cell mid-iteration; retry.
                continue


class Gauge:
    """Last-write-wins instantaneous value (queue depth, buffer occupancy)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._value: float = 0.0

    def set(self, value: float) -> None:
        """Store the current value (a single atomic attribute store)."""
        self._value = value

    @property
    def value(self) -> float:
        """Most recently stored value."""
        return self._value


class Histogram:
    """Fixed-bucket histogram with lock-free per-thread cells.

    Parameters
    ----------
    name:
        Metric name.
    buckets:
        Strictly increasing upper bounds; an implicit ``+Inf`` bucket is
        appended.  Bounds are fixed at construction — observation never
        allocates or rebalances.
    """

    __slots__ = ("name", "labels", "buckets", "_cells")

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...] = DURATION_BUCKETS,
        labels: tuple[tuple[str, str], ...] = (),
    ):
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be strictly increasing and non-empty")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        # cell layout per thread: [count, sum, bucket_0, ..., bucket_inf]
        self._cells: dict[int, list[float]] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        cells = self._cells
        ident = threading.get_ident()
        cell = cells.get(ident)
        if cell is None:
            cell = cells[ident] = [0.0] * (2 + len(self.buckets) + 1)
        cell[0] += 1
        cell[1] += value
        cell[2 + bisect_left(self.buckets, value)] += 1

    def _aggregate(self) -> list[float]:
        width = 2 + len(self.buckets) + 1
        total = [0.0] * width
        while True:
            try:
                snapshot = list(self._cells.values())
                break
            except RuntimeError:
                continue
        for cell in snapshot:
            for index in range(width):
                total[index] += cell[index]
        return total

    @property
    def count(self) -> int:
        """Observations recorded."""
        return int(self._aggregate()[0])

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._aggregate()[1]

    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        total = self._aggregate()
        return total[1] / total[0] if total[0] else 0.0

    def bucket_counts(self) -> list[int]:
        """Per-bucket counts, one per bound plus the ``+Inf`` bucket."""
        return [int(c) for c in self._aggregate()[2:]]

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the bucket boundaries.

        Returns the upper bound of the bucket holding the quantile (the
        last finite bound for the ``+Inf`` bucket); 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self._aggregate()
        count = total[0]
        if not count:
            return 0.0
        rank = q * count
        seen = 0.0
        for index, bound in enumerate(self.buckets):
            seen += total[2 + index]
            if seen >= rank:
                return bound
        return self.buckets[-1]


@dataclass(frozen=True)
class MetricSample:
    """One exported metric: kind, name, labels and its current data."""

    kind: str
    name: str
    labels: tuple[tuple[str, str], ...]
    value: float
    sum: float = 0.0
    buckets: tuple[tuple[float, int], ...] = ()


class MetricsRegistry:
    """Names and hands out instruments; snapshots them for exporters.

    Instrument creation (``counter()`` / ``gauge()`` / ``histogram()``)
    takes a lock and should happen once per call site — components bind
    their instruments at construction time, not per record.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get(self, cls, name: str, labels: dict[str, str], **kwargs):
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            instrument = self._metrics.get(key)
            if instrument is None:
                instrument = cls(name, labels=key[1], **kwargs)
                self._metrics[key] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DURATION_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get(Histogram, name, labels, buckets=buckets)

    def samples(self) -> list[MetricSample]:
        """Point-in-time snapshot of every instrument, sorted by name."""
        with self._lock:
            instruments = list(self._metrics.values())
        out: list[MetricSample] = []
        for instrument in instruments:
            if isinstance(instrument, Counter):
                out.append(
                    MetricSample(
                        kind="counter",
                        name=instrument.name,
                        labels=instrument.labels,
                        value=instrument.value,
                    )
                )
            elif isinstance(instrument, Gauge):
                out.append(
                    MetricSample(
                        kind="gauge",
                        name=instrument.name,
                        labels=instrument.labels,
                        value=instrument.value,
                    )
                )
            else:
                histogram = instrument
                counts = histogram.bucket_counts()
                bounds = list(histogram.buckets) + [float("inf")]
                out.append(
                    MetricSample(
                        kind="histogram",
                        name=histogram.name,
                        labels=histogram.labels,
                        value=histogram.count,
                        sum=histogram.sum,
                        buckets=tuple(zip(bounds, counts)),
                    )
                )
        return sorted(out, key=lambda s: (s.name, s.labels))


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = ""
    labels = ()
    value = 0
    count = 0
    sum = 0.0
    buckets = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def mean(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0

    def bucket_counts(self) -> list[int]:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Disabled registry: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name: str, **labels: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DURATION_BUCKETS,
        **labels: str,
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def samples(self) -> list[MetricSample]:
        return []
