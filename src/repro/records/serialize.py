"""Record (de)serialization and raw-line parsing.

Two encodings are implemented:

* a *wire* encoding (``serialize_record`` / ``deserialize_record``, and
  ``decode_batch`` for a query result's survivors) used before encryption —
  length-prefixed fields so that arbitrary strings are safe;
* a *raw line* encoding (``render_raw_line`` / ``parse_raw_line``) emulating
  the textual input the paper's parser component consumes (e.g. an Apache log
  line for NASA, a TSV line for Gowalla).  Parsing raw lines is the "heavy"
  task FRESQUE distributes across computing nodes.
"""

from __future__ import annotations

import struct
from bisect import bisect_left

from repro.records.record import DUMMY_FLAG, REAL_FLAG, Record, RecordError
from repro.records.schema import AttributeType, Schema

_HEADER = struct.Struct("<bH")  # flag, field count
_FIELD_LEN = struct.Struct("<I")

#: What every dummy's wire encoding starts with: the flag leads the
#: payload, so a reader can discard dummies without decoding their fields.
DUMMY_PAYLOAD_PREFIX = _HEADER.pack(DUMMY_FLAG, 0)[:1]

#: Separator for raw textual lines; chosen to be absent from generated data.
RAW_SEPARATOR = "\t"

_CAST_ERRORS = (TypeError, ValueError)


def _check_flag(flag: int) -> None:
    """Readers know two flags; any other is a malformed record."""
    if flag != REAL_FLAG and flag != DUMMY_FLAG:
        raise RecordError(f"flag {flag} is neither real nor dummy")


def serialize_record(record: Record, schema: Schema) -> bytes:
    """Encode a record into the wire format (pre-encryption plaintext).

    Layout: ``flag (int8) | nfields (uint16) | [len (uint32) | utf8 bytes]*``.
    """
    if len(record.values) != schema.arity:
        raise RecordError(
            f"record arity {len(record.values)} != schema arity {schema.arity}"
        )
    _check_flag(record.flag)
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
    thousands per publication, and the computing node renders the
    dispatcher's dummies, each no more than its indexed value, through
    the same template.
    """

    def __init__(self, schema: Schema):
        position = schema.indexed_position
        #: The indexed attribute's type: a dummy value's coercion.
        self.coerce = schema.attributes[position].type.python_type()
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
        order (the value is the dummy's indexed attribute).  The part
        before the value's bytes is packed once per length."""
        before, after = self._before, self._after
        strings = map(str, map(self.coerce, indexed_values))
        blobs = list(map(str.encode, strings))
        heads = {n: before + _FIELD_LEN.pack(n) for n in set(map(len, blobs))}
        return [heads[len(blob)] + blob + after for blob in blobs]


def deserialize_record(payload: bytes, schema: Schema) -> Record:
    """Decode the wire format back into a (type-coerced) :class:`Record`.

    Raises
    ------
    RecordError
        If the payload is truncated, has bytes past its last field, has
        a flag neither real nor dummy, or does not match the schema (a
        field that does not coerce included).
    """
    try:
        flag, nfields = _HEADER.unpack_from(payload)
        _check_flag(flag)
        if nfields != schema.arity:
            raise RecordError(
                f"payload has {nfields} fields, schema expects {schema.arity}"
            )
        field_length, fields, end = _FIELD_LEN.unpack_from, [], _HEADER.size
        for _ in range(nfields):
            start = end + _FIELD_LEN.size
            end = start + field_length(payload, end)[0]
            fields.append(payload[start:end].decode())
    except (struct.error, UnicodeDecodeError) as exc:  # truncated, not UTF-8
        raise RecordError(f"malformed payload: {exc}") from exc
    if end != len(payload):
        raise RecordError(
            f"payload of {len(payload)} bytes declares fields up to byte {end}"
        )
    try:
        values = tuple([cast(f) for cast, f in zip(schema.python_types, fields)])
    except (TypeError, ValueError):  # again, for the attribute's message
        try:
            values = schema.coerce_values(tuple(fields))
        except ValueError as exc:
            raise RecordError(str(exc)) from exc
    return Record(values, flag=flag)


def decode_batch(
    payloads: list[bytes], schema: Schema
) -> tuple[list[int], list[list]]:
    """``payloads`` decoded as ``(flags, columns)``: payload for payload
    :func:`deserialize_record`, but one pass per column.  Numeric fields
    are cast from their raw ASCII bytes; anything that raises redoes the
    batch through the scalar decoder, so a bad payload raises its error.
    """
    arity, flags, fields = schema.arity, [], []
    heads = {_HEADER.pack(flag, arity): flag for flag in (REAL_FLAG, DUMMY_FLAG)}
    field_length, prefix = _FIELD_LEN.unpack_from, _FIELD_LEN.size
    append, head, positions = fields.append, _HEADER.size, range(arity)
    try:
        for payload in payloads:
            flags.append(heads[payload[:head]])  # a known flag, the arity
            end = head
            for _ in positions:
                (length,) = field_length(payload, end)
                end += prefix + length
                append(payload[end - length : end])
            if end != len(payload):
                raise RecordError(end)
        columns = [
            list(map(bytes.decode if cast is str else cast, fields[at::arity]))
            for at, cast in enumerate(schema.python_types)
        ]
    except (LookupError, struct.error, *_CAST_ERRORS):  # the scalar finds why
        records = [deserialize_record(payload, schema) for payload in payloads]
        flags = [record.flag for record in records]
        columns = [list(column) for column in zip(*(r.values for r in records))]
    return flags, columns


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


def _pop_flag(fields: list, schema: Schema) -> int:
    """The raw-line rules on one line's split ``fields``: the schema's
    fields, then optionally a flag, popped off and returned.  A wrong
    count, or a flag neither real nor dummy, is a :class:`RecordError`."""
    flag = REAL_FLAG
    if len(fields) == schema.arity + 1:
        try:
            flag = int(fields.pop())
        except ValueError as exc:
            raise RecordError(f"bad flag field: {exc}") from exc
        _check_flag(flag)
    if len(fields) != schema.arity:
        raise RecordError(
            f"line has {len(fields)} fields, schema {schema.name!r} "
            f"expects {schema.arity}"
        )
    return flag


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
    flag = _pop_flag(fields, schema)
    return Record(schema.coerce_values(tuple(fields)), flag=flag)


def _map(function, column: list, bad: set, errors=ValueError) -> list:
    """``list(map(function, column))``, redone row by row if it raises
    ``errors``: each row that raises joins ``bad`` (holding ``b""``)."""
    try:
        return list(map(function, column))
    except errors:
        out = []
    for row, value in enumerate(column):
        try:
            out.append(function(value))
        except errors:
            bad.add(row)
            out.append(b"")
    return out


def _drop(bad: set, *columns: list) -> list:
    if not bad:
        return list(columns)
    return [[v for row, v in enumerate(c) if row not in bad] for c in columns]


def encode_batch(items, schema: Schema, leaf_offset, dummy_serializer=None):
    """A batch of raw lines and dispatcher dummies (a dummy is its indexed
    value, any item that is not a ``str``) as ``(leaves, plaintexts,
    dummies, indices, parsed, rejected)``.  Item for item
    :func:`parse_raw_line` (``parsed`` counts the lines that pass it) or
    ``make_dummy``, then ``leaf_offset`` and :func:`serialize_record`,
    an item dropped where a step raises; but one split per line, then
    one pass per column, one join per record, and the dummies rendered
    through ``dummy_serializer`` (a :class:`DummyRecordSerializer` of
    ``schema``, built here when not given).
    """
    arity = schema.arity
    positions, flags, rows = [], [], []
    dummy_positions, dummy_values = [], []
    for position, item in enumerate(items):
        if not isinstance(item, str):
            dummy_positions.append(position)
            dummy_values.append(item)
            continue
        fields = item.rstrip("\n").split(RAW_SEPARATOR)
        try:
            flag = REAL_FLAG if len(fields) == arity else _pop_flag(fields, schema)
        except RecordError:
            continue
        positions.append(position)
        flags.append(flag)
        rows.append(fields)
    columns = [list(c) for c in zip(*rows)] or [[] for _ in range(arity)]
    bad: set[int] = set()
    for attribute, cast in enumerate(schema.python_types):
        if cast is not str:  # a split field already is one
            columns[attribute] = _map(cast, columns[attribute], bad, _CAST_ERRORS)
    positions, flags, *columns = _drop(bad, positions, flags, *columns)
    parsed = len(positions)
    bad = set()
    leaves = _map(leaf_offset, columns[schema.indexed_position], bad)
    prefix = _FIELD_LEN.pack
    for attribute, column in enumerate(columns):
        try:
            blobs = [str(value).encode() for value in column]
        except ValueError:  # a lone surrogate
            blobs = _map(lambda value: str(value).encode(), column, bad)
        columns[attribute] = [prefix(len(blob)) + blob for blob in blobs]
    positions, flags, leaves, *columns = _drop(
        bad, positions, flags, leaves, *columns
    )
    heads = map({f: _HEADER.pack(f, arity) for f in set(flags)}.get, flags)
    plaintexts = [b"".join(parts) for parts in zip(heads, *columns)]
    if dummy_positions:
        dummy_serializer = dummy_serializer or DummyRecordSerializer(schema)
        bad = set()
        errors = (*_CAST_ERRORS, OverflowError)  # int(inf) overflows
        values = _map(dummy_serializer.coerce, dummy_values, bad, errors)
        dummy_positions, values = _drop(bad, dummy_positions, values)
        bad = set()
        dummy_leaves = _map(leaf_offset, values, bad)
        dummy_positions, values, dummy_leaves = _drop(
            bad, dummy_positions, values, dummy_leaves
        )
        rendered = dummy_serializer.serialize_many(values)
        for position, leaf, plaintext in zip(
            dummy_positions, dummy_leaves, rendered
        ):
            row = bisect_left(positions, position)
            positions.insert(row, position)
            flags.insert(row, DUMMY_FLAG)
            leaves.insert(row, leaf)
            plaintexts.insert(row, plaintext)
    dummies = bytes([flag == DUMMY_FLAG for flag in flags])
    rejected = len(items) - len(positions)
    return leaves, plaintexts, dummies, positions, parsed, rejected
