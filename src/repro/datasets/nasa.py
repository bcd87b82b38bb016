"""Synthetic NASA HTTP log workload.

Emulates the NASA-HTTP access log used in the paper's evaluation:
1,569,898 records of five attributes, indexed on the reply size in bytes,
whose domain is cut into 3421 bins of 1 KB.  Reply sizes in real web logs
are heavy-tailed — most responses are small, a few are megabytes — so the
generator draws them log-normally (clipped to the domain), preserving the
skew that makes some index leaves dense and most sparse.

Raw lines mirror a Common-Log-Format-ish record (~90 bytes), roughly four
times a Gowalla line — the record-size gap behind NASA's lower absolute
throughput and larger FRESQUE improvement in Figures 9–11.
"""

from __future__ import annotations

import math

from repro.datasets.base import DatasetGenerator
from repro.index.domain import nasa_domain
from repro.records.record import Record
from repro.records.schema import nasa_log_schema

_REQUEST_PATHS = (
    "/shuttle/missions/sts-71/mission-sts-71.html",
    "/shuttle/countdown/",
    "/images/NASA-logosmall.gif",
    "/images/KSC-logosmall.gif",
    "/history/apollo/apollo-13/apollo-13.html",
    "/shuttle/missions/sts-70/images/images.html",
    "/cgi-bin/imagemap/countdown",
    "/ksc.html",
)

_STATUS_CODES = (200, 200, 200, 200, 200, 304, 302, 404)


class NasaLogGenerator(DatasetGenerator):
    """Draws synthetic NASA-log records."""

    PAPER_RECORD_COUNT = 1_569_898

    #: Log-normal parameters for reply bytes: median ~6 KB, long tail.
    _MU = math.log(6 * 1024)
    _SIGMA = 1.6

    schema_factory = staticmethod(nasa_log_schema)
    domain_factory = staticmethod(nasa_domain)

    def _reply_bytes(self) -> int:
        value = self._rng.lognormvariate(self._MU, self._SIGMA)
        return int(min(max(value, 0.0), self.domain.dmax))

    def record(self) -> Record:
        host = (
            f"host{self._rng.randrange(100_000):05d}."
            f"net{self._rng.randrange(100):02d}.example.com"
        )
        timestamp = 804_571_200 + self._rng.randrange(31 * 24 * 3600)
        request = (
            f"GET {self._rng.choice(_REQUEST_PATHS)} HTTP/1.0"
        )
        status = self._rng.choice(_STATUS_CODES)
        return Record(
            (host, timestamp, request, status, self._reply_bytes())
        )
