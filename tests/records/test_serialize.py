"""Unit and property tests for record (de)serialization and raw parsing."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.records.record import Record, RecordError, make_dummy
from repro.records.schema import flu_survey_schema, gowalla_schema
from repro.records.serialize import (
    deserialize_record,
    parse_raw_line,
    render_raw_line,
    serialize_record,
)


class TestWireFormat:
    def test_roundtrip(self):
        schema = gowalla_schema()
        record = Record((7, 3600, 99))
        assert deserialize_record(serialize_record(record, schema), schema) == record

    def test_dummy_flag_survives(self):
        schema = flu_survey_schema()
        dummy = make_dummy(schema, 375)
        back = deserialize_record(serialize_record(dummy, schema), schema)
        assert back.is_dummy

    def test_wrong_arity_rejected_at_serialize(self):
        with pytest.raises(RecordError):
            serialize_record(Record((1, 2)), gowalla_schema())

    def test_truncated_payload_rejected(self):
        schema = gowalla_schema()
        payload = serialize_record(Record((7, 3600, 99)), schema)
        with pytest.raises(RecordError):
            deserialize_record(payload[:-3], schema)

    def test_short_header_rejected(self):
        with pytest.raises(RecordError):
            deserialize_record(b"\x00", gowalla_schema())

    def test_cross_schema_rejected(self):
        payload = serialize_record(Record((7, 3600, 99)), gowalla_schema())
        with pytest.raises(RecordError):
            deserialize_record(payload, flu_survey_schema())

    def test_trailing_bytes_rejected(self):
        """No serializer writes past the last declared field, so bytes
        there mean the payload is not the record it decodes to."""
        schema = gowalla_schema()
        payload = serialize_record(Record((7, 3600, 99)), schema)
        for tail in (b"\x00", b"garbage"):
            with pytest.raises(RecordError, match="declares fields up to"):
                deserialize_record(payload + tail, schema)

    def test_uncoercible_field_raises_record_error(self):
        """A field that does not coerce to its attribute's type raises the
        documented RecordError (which is still a ValueError), with the
        attribute-level message."""
        schema = gowalla_schema()
        payload = serialize_record(Record(("3x0", 3600, 99)), schema)
        with pytest.raises(RecordError, match="cannot coerce '3x0'"):
            deserialize_record(payload, schema)
        flu = flu_survey_schema()
        payload = serialize_record(Record(("a", 1, 365, "none")), flu)
        with pytest.raises(RecordError):  # not UTF-8
            deserialize_record(payload.replace(b"none", b"\xffone"), flu)

    @pytest.mark.parametrize("flag", [5, 1, -2, 127, -128])
    def test_flag_neither_real_nor_dummy_rejected(self, flag):
        """The header packs the flag as an int8 and readers know two
        values, so a payload with any other flag is not a record."""
        schema = gowalla_schema()
        payload = serialize_record(Record((7, 3600, 99)), schema)
        bad = struct.pack("<bH", flag, 3) + payload[3:]
        with pytest.raises(RecordError, match=f"flag {flag} is neither"):
            deserialize_record(bad, schema)

    @pytest.mark.parametrize("flag", [1, 5, -2, 200, -129])
    def test_flag_neither_real_nor_dummy_rejected_at_serialize(self, flag):
        """No encoder writes a flag a reader rejects: an unknown flag is
        a RecordError, an int8 overflow included (not ``struct.error``)."""
        with pytest.raises(RecordError, match="neither real nor dummy"):
            serialize_record(Record((1, 2, 3), flag=flag), gowalla_schema())


class TestRawLines:
    def test_roundtrip(self):
        schema = flu_survey_schema()
        record = Record(("alice", 3, 371, "cough"))
        assert parse_raw_line(render_raw_line(record, schema), schema) == record

    def test_dummy_roundtrip(self):
        schema = flu_survey_schema()
        dummy = make_dummy(schema, 390)
        assert parse_raw_line(render_raw_line(dummy, schema), schema).is_dummy

    def test_trailing_newline_ok(self):
        schema = gowalla_schema()
        line = render_raw_line(Record((1, 2, 3)), schema) + "\n"
        assert parse_raw_line(line, schema) == Record((1, 2, 3))

    def test_wrong_field_count_rejected(self):
        with pytest.raises(RecordError, match="fields"):
            parse_raw_line("a\tb", gowalla_schema())

    def test_bad_types_rejected(self):
        with pytest.raises(ValueError):
            parse_raw_line("x\ty\tz", gowalla_schema())

    @pytest.mark.parametrize("flag", ["200", "1", "-2", "-129"])
    def test_flag_neither_real_nor_dummy_rejected(self, flag):
        """The wire header packs the flag as an int8 and readers know two
        values, so any other flag is a malformed line, not a record."""
        with pytest.raises(RecordError, match="neither real nor dummy"):
            parse_raw_line(f"1\t2\t3\t{flag}", gowalla_schema())

    def test_real_and_dummy_flags_accepted(self):
        schema = gowalla_schema()
        assert not parse_raw_line("1\t2\t3\t0", schema).is_dummy
        assert parse_raw_line("1\t2\t3\t-1", schema).is_dummy


@given(
    user=st.integers(min_value=0, max_value=10**9),
    time=st.integers(min_value=0, max_value=626 * 3600),
    location=st.integers(min_value=0, max_value=10**9),
)
def test_wire_roundtrip_property(user, time, location):
    """serialize → deserialize is the identity on valid records."""
    schema = gowalla_schema()
    record = Record((user, time, location))
    assert deserialize_record(serialize_record(record, schema), schema) == record


@given(
    participant=st.text(
        alphabet=st.characters(
            blacklist_characters="\t\n\r", blacklist_categories=("Cs",)
        ),
        max_size=30,
    ),
    week=st.integers(min_value=0, max_value=52),
    temperature=st.integers(min_value=340, max_value=420),
)
def test_raw_line_roundtrip_property(participant, week, temperature):
    """render → parse is the identity for tab-free field values."""
    schema = flu_survey_schema()
    record = Record((participant, week, temperature, "none"))
    assert parse_raw_line(render_raw_line(record, schema), schema) == record


class TestDummyRecordSerializer:
    """The merger's fused dummy-serialization fast path must stay
    byte-identical to the reference ``serialize_record(make_dummy(...))``."""

    @pytest.mark.parametrize(
        "schema_factory",
        [gowalla_schema, flu_survey_schema],
    )
    def test_matches_reference_encoding(self, schema_factory):
        from repro.records.serialize import DummyRecordSerializer

        schema = schema_factory()
        values = (0, 1, 375, 1234.9, 626 * 3600)
        assert DummyRecordSerializer(schema).serialize_many(values) == [
            serialize_record(make_dummy(schema, value), schema)
            for value in values
        ]

    def test_deserializes_as_dummy(self):
        from repro.records.serialize import DummyRecordSerializer

        schema = gowalla_schema()
        (payload,) = DummyRecordSerializer(schema).serialize_many([7200])
        record = deserialize_record(payload, schema)
        assert record.is_dummy
        assert record.indexed_value(schema) == 7200
