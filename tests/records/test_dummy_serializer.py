"""``DummyRecordSerializer.serialize_many`` is the reference encoding.

The merger serializes a publication's whole overflow padding — tens of
thousands of dummies — in one ``serialize_many`` call, without building
a :class:`Record` per dummy.  Each element must be byte-identical to
``serialize_record(make_dummy(schema, value), schema)``, for every
schema a benchmark dataset uses and for an indexed attribute of either
numerical type.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchfab.datasets import DATASETS
from repro.records.record import make_dummy
from repro.records.schema import Attribute, AttributeType, Schema
from repro.records.serialize import (
    DummyRecordSerializer,
    deserialize_record,
    serialize_record,
)


def _with_indexed_type(schema: Schema, kind: AttributeType) -> Schema:
    """``schema`` with its indexed attribute re-typed as ``kind``."""
    return Schema(
        name=schema.name,
        attributes=tuple(
            Attribute(attr.name, kind)
            if attr.name == schema.indexed_attribute
            else attr
            for attr in schema.attributes
        ),
        indexed_attribute=schema.indexed_attribute,
    )


SCHEMAS = {
    f"{name}-{kind.value}": _with_indexed_type(source.schema(), kind)
    for name, source in sorted(DATASETS.items())
    for kind in (AttributeType.INT, AttributeType.FLOAT)
}

#: What the merger draws: a leaf's low bound, or low + random() * width.
_values = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=3421 * 1024),
        st.floats(min_value=0, max_value=3421 * 1024, allow_nan=False),
    ),
    max_size=40,
)


@pytest.mark.parametrize("schema", SCHEMAS.values(), ids=SCHEMAS.keys())
@settings(max_examples=40, deadline=None)
@given(values=_values)
def test_serialize_many_is_the_reference_encoding(schema, values):
    serialized = DummyRecordSerializer(schema).serialize_many(values)
    assert serialized == [
        serialize_record(make_dummy(schema, value), schema) for value in values
    ]


@pytest.mark.parametrize("schema", SCHEMAS.values(), ids=SCHEMAS.keys())
def test_serialized_dummies_read_back_as_dummies(schema):
    values = [0, 1024, 1024.5, 3_503_103.75]
    position = schema.indexed_position
    for value, payload in zip(
        values, DummyRecordSerializer(schema).serialize_many(values)
    ):
        record = deserialize_record(payload, schema)
        assert record.is_dummy
        assert record.values[position] == schema.attributes[position].coerce(
            value
        )
