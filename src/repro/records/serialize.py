"""Record (de)serialization and raw-line parsing.

Two encodings are implemented:

* a *wire* encoding (``serialize_record`` / ``deserialize_record``) used
  before encryption — length-prefixed fields so that arbitrary strings are
  safe;
* a *raw line* encoding (``render_raw_line`` / ``parse_raw_line``) emulating
  the textual input the paper's parser component consumes (e.g. an Apache log
  line for NASA, a TSV line for Gowalla).  Parsing raw lines is the "heavy"
  task FRESQUE distributes across computing nodes.
"""

from __future__ import annotations

import struct

from repro.records.record import DUMMY_FLAG, Record, RecordError
from repro.records.schema import AttributeType, Schema

_HEADER = struct.Struct("<bH")  # flag, field count
_FIELD_LEN = struct.Struct("<I")

#: What every dummy's wire encoding starts with: the flag leads the
#: payload, so a reader can discard dummies without decoding their fields.
DUMMY_PAYLOAD_PREFIX = _HEADER.pack(DUMMY_FLAG, 0)[:1]

#: Separator for raw textual lines; chosen to be absent from generated data.
RAW_SEPARATOR = "\t"


def serialize_record(record: Record, schema: Schema) -> bytes:
    """Encode a record into the wire format (pre-encryption plaintext).

    Layout: ``flag (int8) | nfields (uint16) | [len (uint32) | utf8 bytes]*``.
    """
    if len(record.values) != schema.arity:
        raise RecordError(
            f"record arity {len(record.values)} != schema arity {schema.arity}"
        )
    parts = [_HEADER.pack(record.flag, len(record.values))]
    for value in record.values:
        blob = str(value).encode("utf-8")
        parts.append(_FIELD_LEN.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


class DummyRecordSerializer:
    """Pre-rendered wire encoding for one schema's dummy records.

    Byte-identical to ``serialize_record(make_dummy(schema, value), schema)``
    but without building the intermediate :class:`Record` — the merger pads
    every overflow array to capacity with encrypted dummies, tens of
    thousands per publication, and serializes them in one call.
    """

    def __init__(self, schema: Schema):
        position = schema.indexed_position
        self._coerce = schema.attributes[position].type.python_type()
        before = [_HEADER.pack(DUMMY_FLAG, schema.arity)]
        after: list[bytes] = []
        for pos, filler in enumerate(schema.dummy_filler):
            if pos == position:
                continue
            blob = str(filler).encode("utf-8")
            target = before if pos < position else after
            target.append(_FIELD_LEN.pack(len(blob)))
            target.append(blob)
        self._before = b"".join(before)
        self._after = b"".join(after)

    def serialize_many(self, indexed_values) -> list[bytes]:
        """Wire bytes of one dummy per value of ``indexed_values``, in
        order (the value is the dummy's indexed attribute)."""
        coerce, before, after = self._coerce, self._before, self._after
        prefix = _FIELD_LEN.pack
        blobs = [str(coerce(value)).encode() for value in indexed_values]
        return [before + prefix(len(blob)) + blob + after for blob in blobs]


def deserialize_record(payload: bytes, schema: Schema) -> Record:
    """Decode the wire format back into a (type-coerced) :class:`Record`.

    Raises
    ------
    RecordError
        If the payload is truncated or does not match the schema.
    """
    if len(payload) < _HEADER.size:
        raise RecordError("payload too short for record header")
    flag, nfields = _HEADER.unpack_from(payload, 0)
    if nfields != schema.arity:
        raise RecordError(
            f"payload has {nfields} fields, schema expects {schema.arity}"
        )
    offset = _HEADER.size
    raw_values: list[str] = []
    for _ in range(nfields):
        if len(payload) < offset + _FIELD_LEN.size:
            raise RecordError("payload truncated in field length")
        (length,) = _FIELD_LEN.unpack_from(payload, offset)
        offset += _FIELD_LEN.size
        if len(payload) < offset + length:
            raise RecordError("payload truncated in field body")
        raw_values.append(payload[offset : offset + length].decode("utf-8"))
        offset += length
    values = schema.coerce_values(tuple(raw_values))
    return Record(values, flag=flag)


def render_raw_line(record: Record, schema: Schema) -> str:
    """Render a record as the raw textual line a data source would send.

    The collector's parser component reverses this with
    :func:`parse_raw_line`.
    """
    if len(record.values) != schema.arity:
        raise RecordError(
            f"record arity {len(record.values)} != schema arity {schema.arity}"
        )
    fields = [str(value) for value in record.values]
    if record.is_dummy:
        fields.append(str(record.flag))
    return RAW_SEPARATOR.join(fields)


def parse_raw_line(line: str, schema: Schema) -> Record:
    """Parse a raw textual line into a typed :class:`Record`.

    This is the work performed by the *parser* component; it validates field
    count and coerces every field to its attribute type.

    Raises
    ------
    RecordError
        If the line is malformed for the schema.
    """
    fields = line.rstrip("\n").split(RAW_SEPARATOR)
    flag = 0
    if len(fields) == schema.arity + 1:
        try:
            flag = int(fields[-1])
        except ValueError as exc:
            raise RecordError(f"bad flag field in line: {line!r}") from exc
        fields = fields[:-1]
    if len(fields) != schema.arity:
        raise RecordError(
            f"line has {len(fields)} fields, schema {schema.name!r} "
            f"expects {schema.arity}"
        )
    values = schema.coerce_values(tuple(fields))
    return Record(values, flag=flag)
