"""The batch decoder is the scalar decoder, payload for payload.

``decode_batch`` turns the verified plaintexts of a query result into
``(flags, columns)`` a column at a time, casting numeric fields from
their raw bytes.  Its reference is ``deserialize_record`` on each
payload in turn: on a batch the reference decodes, the flags and every
value (type included) must be the reference's; on a batch it rejects,
the batch decoder must raise the same exception type with the same
message, the one the first bad payload raises.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.flu import FluSurveyGenerator
from repro.datasets.gowalla import GowallaGenerator
from repro.datasets.nasa import NasaLogGenerator
from repro.records.record import Record, make_dummy
from repro.records.schema import (
    Attribute,
    AttributeType,
    Schema,
    flu_survey_schema,
    gowalla_schema,
    nasa_log_schema,
)
from repro.records.serialize import (
    decode_batch,
    deserialize_record,
    parse_raw_line,
    serialize_record,
)

#: name -> (schema, a sample of valid records)
SCHEMAS = {
    name: (
        schema,
        [parse_raw_line(line, schema) for line in generator(seed=9).raw_lines(40)],
    )
    for name, schema, generator in (
        ("nasa", nasa_log_schema(), NasaLogGenerator),
        ("gowalla", gowalla_schema(), GowallaGenerator),
        ("flu", flu_survey_schema(), FluSurveyGenerator),
    )
}


def pack(flag, fields) -> bytes:
    """A wire payload with this header flag and these raw field bytes."""
    parts = [struct.pack("<bH", flag, len(fields))]
    for blob in fields:
        parts += [struct.pack("<I", len(blob)), blob]
    return b"".join(parts)


def typed(flags, columns):
    """What must match: flags, and each value with its type (by repr, so
    that a NaN equals itself)."""
    return flags, [[(type(v), repr(v)) for v in column] for column in columns]


def outcome(function):
    try:
        return "ok", typed(*function())
    except Exception as exc:  # compared by the caller, not swallowed
        return "raised", (type(exc), str(exc))


def scalar(payloads, schema):
    records = [deserialize_record(payload, schema) for payload in payloads]
    flags = [record.flag for record in records]
    columns = [list(column) for column in zip(*(r.values for r in records))]
    return flags, columns or [[] for _ in range(schema.arity)]


def assert_matches_scalar(payloads, schema):
    got = outcome(lambda: decode_batch(list(payloads), schema))
    assert got == outcome(lambda: scalar(payloads, schema))
    return got


GOOD_KINDS = ("valid", "dummy")
BAD_KINDS = (
    "truncated",
    "short-header",
    "trailing-bytes",
    "fewer-fields",
    "more-fields",
    "not-utf8",
    "not-coercible",
    "numeric-text",
    "bad-flag",
)


@st.composite
def payload(draw, name, kinds):
    """One plaintext of a result: a serialized record, broken or not."""
    schema, records = SCHEMAS[name]
    record = draw(st.sampled_from(records))
    kind = draw(st.sampled_from(kinds))
    if kind == "dummy":
        return serialize_record(
            make_dummy(schema, record.indexed_value(schema)), schema
        )
    good = serialize_record(record, schema)
    fields = [str(value).encode() for value in record.values]
    position = draw(st.integers(0, schema.arity - 1))
    numeric = [
        index
        for index, attribute in enumerate(schema.attributes)
        if attribute.type is not AttributeType.STR
    ]
    if kind == "truncated":
        return good[: draw(st.integers(3, len(good) - 1))]
    if kind == "short-header":
        return good[: draw(st.integers(0, 2))]
    if kind == "trailing-bytes":
        return good + draw(st.binary(min_size=1, max_size=4))
    if kind == "fewer-fields":
        del fields[position]
    elif kind == "more-fields":
        fields.insert(position, b"0")
    elif kind == "not-utf8":
        fields[position] = b"\xff" + fields[position]
    elif kind == "not-coercible":
        fields[draw(st.sampled_from(numeric))] = draw(
            st.sampled_from([b"x1", b"", b"1.5", b"1e3", b"0x10"])
        )
    elif kind == "numeric-text":  # any text: some of it coerces, some not
        fields[draw(st.sampled_from(numeric))] = draw(
            st.text(max_size=5)
        ).encode()
    elif kind == "bad-flag":
        return pack(draw(st.sampled_from([1, 5, 127, -2, -128])), fields)
    return pack(0, fields)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_decoder_is_the_scalar_path(name, data):
    """Valid payloads and dummies with up to two others mixed in at
    random places, so that about half the batches decode."""
    payloads = data.draw(st.lists(payload(name, GOOD_KINDS), max_size=14))
    payloads += data.draw(st.lists(payload(name, BAD_KINDS), max_size=2))
    payloads = data.draw(st.permutations(payloads))
    assert_matches_scalar(payloads, SCHEMAS[name][0])


def test_empty_batch():
    schema = gowalla_schema()
    assert decode_batch([], schema) == ([], [[], [], []])
    assert_matches_scalar([], schema)


def test_every_payload_bad():
    """The first bad payload's error is raised, whatever follows it."""
    schema, records = SCHEMAS["flu"]
    good = serialize_record(records[0], schema)
    payloads = [good[:-1], b"\x00", good + b"\x00", pack(5, [b""] * 4)]
    kind, (_, message) = assert_matches_scalar(payloads, schema)
    assert kind == "raised" and "declares fields up to" in message


def test_one_bad_payload_in_the_middle():
    schema, records = SCHEMAS["nasa"]
    payloads = [serialize_record(record, schema) for record in records[:9]]
    fields = [str(value).encode() for value in records[4].values]
    fields[3] = b"2OO"
    payloads[4] = pack(0, fields)
    kind, (_, message) = assert_matches_scalar(payloads, schema)
    assert kind == "raised" and "cannot coerce '2OO'" in message


def test_unknown_flag_raises():
    schema = gowalla_schema()
    kind, (_, message) = assert_matches_scalar(
        [pack(5, [b"7", b"3600", b"99"])], schema
    )
    assert kind == "raised" and message == "flag 5 is neither real nor dummy"


def test_non_ascii_digits_decode_as_the_scalar_does():
    """``int(str)`` accepts any Unicode digit and ``int(bytes)`` only ASCII
    ones; the scalar decodes first, so the batch must give its value."""
    schema = gowalla_schema()
    payloads = [
        serialize_record(Record((7, 3600, 99)), schema),
        pack(0, [b"1", "١٢".encode(), b"3"]),
    ]
    assert decode_batch(payloads, schema) == ([0, 0], [[7, 1], [3600, 12], [99, 3]])
    assert_matches_scalar(payloads, schema)


def test_float_attribute_casts_like_the_scalar():
    """No dataset schema has a FLOAT attribute; the cast from bytes must
    still agree with the scalar's cast from text."""
    schema = Schema(
        name="readings",
        attributes=(
            Attribute("sensor", AttributeType.STR),
            Attribute("value", AttributeType.FLOAT),
        ),
        indexed_attribute="value",
    )
    texts = ["1.5", " 2 ", "-0.0", "1e3", "nan", "inf", "1_0.5", "١.5"]
    payloads = [pack(0, [b"s", text.encode()]) for text in texts]
    kind, (flags, columns) = assert_matches_scalar(payloads, schema)
    assert kind == "ok" and flags == [0] * len(texts)
    payloads.append(pack(-1, [b"s", b"1,5"]))
    assert assert_matches_scalar(payloads, schema)[0] == "raised"
