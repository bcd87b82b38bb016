"""Unit and property tests for record (de)serialization and raw parsing."""

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
