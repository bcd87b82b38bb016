"""The trusted query client.

An authorized analyst (the paper's epidemiologist) issues non-aggregate
range queries against the cloud, receives ciphertexts, decrypts them with
the shared key, and post-filters: dummy records are discarded and records
outside the exact range are dropped (index bins and overflow arrays are
leaf-granular, so the cloud over-returns by design).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cipher import DecryptionError, RecordCipher
from repro.index.query import RangeQuery
from repro.records.record import Record
from repro.records.schema import Schema
from repro.records.serialize import (
    DUMMY_PAYLOAD_PREFIX,
    deserialize_record,
)


@dataclass(frozen=True)
class ClientResult:
    """Plaintext outcome of one range query.

    Parameters
    ----------
    records:
        Real records whose indexed attribute lies in the queried range.
    ciphertexts_received:
        How many ciphertexts the cloud returned (bandwidth metric).
    dummies_discarded:
        Dummy records filtered out after decryption.
    out_of_range_discarded:
        Real records returned because of bin granularity but outside the
        exact range.
    """

    records: tuple[Record, ...]
    ciphertexts_received: int
    dummies_discarded: int
    out_of_range_discarded: int


class QueryClient:
    """Issues range queries and post-processes encrypted results.

    Parameters
    ----------
    schema:
        Relation schema of the outsourced data.
    cipher:
        Record cipher sharing keys with the collector.
    cloud:
        Any object exposing ``query(RangeQuery) -> QueryResult``.
    """

    def __init__(self, schema: Schema, cipher: RecordCipher, cloud):
        self._schema = schema
        self._cipher = cipher
        self._cloud = cloud

    def range_query(self, low: float, high: float) -> ClientResult:
        """Run ``low <= Aq <= high`` end to end.

        Raises
        ------
        DecryptionError
            If a returned ciphertext cannot be decrypted — a protocol
            violation under the honest-but-curious model.
        """
        query = RangeQuery(low, high)
        ciphertexts = self._cloud.query(query).ciphertexts()
        # Every returned ciphertext is decrypted and padding-checked;
        # only the plaintexts that are not dummies are then decoded.
        plaintexts = self._cipher.decrypt_batch(ciphertexts)
        schema = self._schema
        matches: list[Record] = []
        dummies = 0
        out_of_range = 0
        for plaintext in plaintexts:
            if plaintext.startswith(DUMMY_PAYLOAD_PREFIX):
                dummies += 1
                continue
            record = deserialize_record(plaintext, schema)
            if query.contains(record.indexed_value(schema)):
                matches.append(record)
            else:
                out_of_range += 1
        return ClientResult(
            records=tuple(matches),
            ciphertexts_received=len(ciphertexts),
            dummies_discarded=dummies,
            out_of_range_discarded=out_of_range,
        )
