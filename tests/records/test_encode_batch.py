"""The batch encoder is the scalar path, item for item.

``encode_batch`` turns a dispatched batch into the computing node's
plaintext columns a column at a time.  Its reference is what the node
did one item at a time: ``parse_raw_line`` for a line, ``make_dummy``
for a dispatcher dummy (a batch carries a dummy as its indexed value
alone), the domain's ``leaf_offset`` of the indexed value,
``serialize_record``, dropping an item at the first step that raises.
Every output column and both counters must equal that reference's, on
valid lines, dummy values and every kind of malformed item, mixed in
one batch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.datasets.gowalla import GowallaGenerator
from repro.datasets.nasa import NasaLogGenerator
from repro.index.domain import DomainError, gowalla_domain, nasa_domain
from repro.records.record import RecordError, make_dummy
from repro.records.schema import (
    Attribute,
    AttributeType,
    Schema,
    flu_survey_schema,
    gowalla_schema,
    nasa_log_schema,
)
from repro.records.serialize import (
    encode_batch,
    parse_raw_line,
    serialize_record,
)

#: name -> (schema, domain, a sample of valid raw lines)
SCHEMAS = {
    name: (schema, domain, list(generator(seed=5).raw_lines(40)))
    for name, schema, domain, generator in (
        ("nasa", nasa_log_schema(), nasa_domain(), NasaLogGenerator),
        ("gowalla", gowalla_schema(), gowalla_domain(), GowallaGenerator),
        ("flu", flu_survey_schema(), flu_domain(), FluSurveyGenerator),
    )
}


def scalar(items, schema, leaf_offset):
    """The per-item reference: parse, leaf offset, serialize."""
    leaves, plaintexts, dummies, indices = [], [], bytearray(), []
    parsed = rejected = 0
    for index, item in enumerate(items):
        try:
            if isinstance(item, str):
                record = parse_raw_line(item, schema)
                parsed += 1
            else:
                record = make_dummy(schema, item)
            leaf = leaf_offset(record.indexed_value(schema))
            plaintext = serialize_record(record, schema)
        except (RecordError, DomainError, ValueError, OverflowError):
            rejected += 1
            continue
        leaves.append(leaf)
        plaintexts.append(plaintext)
        dummies.append(record.is_dummy)
        indices.append(index)
    return leaves, plaintexts, bytes(dummies), indices, parsed, rejected


def assert_matches_scalar(items, name):
    schema, domain, _ = SCHEMAS[name]
    got = encode_batch(tuple(items), schema, domain.leaf_offset)
    assert got == scalar(items, schema, domain.leaf_offset)
    return got


KINDS = (
    "valid",
    "valid",
    "valid",
    "dummy",
    "dummy-float",
    "newline",
    "dummy-line",
    "real-flag-line",
    "too-few-fields",
    "too-many-fields",
    "non-numeric",
    "bad-flag",
    "out-of-range-flag",
    "out-of-domain",
    "surrogate",
)


@st.composite
def batch_item(draw, name):
    """One item of a dispatched batch: a line, possibly mutated, or a
    dummy's indexed value (in the domain, near it, or no number at all)."""
    schema, domain, lines = SCHEMAS[name]
    kind = draw(st.sampled_from(KINDS))
    low, high = int(domain.dmin), int(domain.dmax)
    if kind == "dummy":
        return draw(st.integers(low - 2, high + 2))
    if kind == "dummy-float":
        return draw(
            st.one_of(
                st.floats(low - 2, high + 2),
                st.sampled_from([float("inf"), float("-inf"), float("nan")]),
            )
        )
    line = draw(st.sampled_from(lines))
    fields = line.split("\t")
    numeric = [
        position
        for position, attribute in enumerate(schema.attributes)
        if attribute.type is not AttributeType.STR
    ]
    if kind == "newline":
        fields[-1] += "\n"
    elif kind == "dummy-line":
        fields.append("-1")
    elif kind == "real-flag-line":
        fields.append("0")
    elif kind == "too-few-fields":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif kind == "too-many-fields":
        fields += ["0", "0"]
    elif kind == "non-numeric":
        fields[draw(st.sampled_from(numeric))] = draw(
            st.sampled_from(["x1", "", "1.5e", "nan"])
        )
    elif kind == "bad-flag":
        fields.append(draw(st.sampled_from(["zz", "", "1.0"])))
    elif kind == "out-of-range-flag":
        fields.append(str(draw(st.sampled_from([1, 2, -2, 127, 200, -129]))))
    elif kind == "out-of-domain":
        fields[schema.indexed_position] = str(
            draw(st.sampled_from([domain.dmin - 1, domain.dmax * 10]))
        )
    elif kind == "surrogate":
        position = draw(st.integers(0, len(fields) - 1))
        fields[position] = "a\ud800" + fields[position]
    return "\t".join(fields)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encoder_is_the_scalar_path(name, data):
    items = data.draw(st.lists(batch_item(name), max_size=24))
    assert_matches_scalar(items, name)


def test_empty_batch():
    assert assert_matches_scalar([], "gowalla") == ([], [], b"", [], 0, 0)


def test_every_item_rejected():
    """Rejections in every step: field rules, coercion, domain, UTF-8."""
    schema, domain, _ = SCHEMAS["flu"]
    items = [
        "",
        "p1\t1\t375\tnone\t200",
        "p1\tnot-a-week\t375\tnone",
        "p1\t1\t9999\tnone",  # parses, outside the domain
        "\ud800\t1\t375\tnone",  # parses, not UTF-8
        domain.dmax + 1,  # a dummy outside the domain
        float("nan"),
        float("inf"),
    ]
    assert assert_matches_scalar(items, "flu") == ([], [], b"", [], 2, 8)


@pytest.mark.parametrize(
    ("position", "bad"),
    [(1, "x"), (3, "2OO"), (4, "99999999999"), (4, "1e3"), (0, "h\udc80")],
    ids=[
        "timestamp-not-int",
        "status-not-int",
        "reply-out-of-domain",
        "reply-not-int",
        "host-surrogate",
    ],
)
def test_one_column_fails_for_one_row(position, bad):
    """One bad field in one row drops that row alone, wherever in the
    batch the failing column pass meets it."""
    schema, domain, lines = SCHEMAS["nasa"]
    items = list(lines[:12])
    items.insert(6, 2048.5)
    fields = items[3].split("\t")
    fields[position] = bad
    items[3] = "\t".join(fields)
    leaves, plaintexts, dummies, indices, _, rejected = assert_matches_scalar(
        items, "nasa"
    )
    assert rejected == 1
    assert indices == [index for index in range(13) if index != 3]
    assert dummies == bytes(index == 6 for index in indices)
    assert len(leaves) == len(plaintexts) == 12


def _float_indexed(schema: Schema) -> Schema:
    """``schema`` with its indexed attribute re-typed as FLOAT."""
    return Schema(
        name=schema.name,
        attributes=tuple(
            Attribute(attr.name, AttributeType.FLOAT)
            if attr.name == schema.indexed_attribute
            else attr
            for attr in schema.attributes
        ),
        indexed_attribute=schema.indexed_attribute,
    )


@pytest.mark.parametrize("indexed", ["as-is", "float"])
@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_dummy_values_render_as_make_dummy(name, indexed):
    """A dummy value's plaintext is ``serialize_record(make_dummy(...))``
    and its leaf that of the coerced value, for every dataset schema and
    for a FLOAT indexed attribute."""
    schema, domain, _ = SCHEMAS[name]
    if indexed == "float":
        schema = _float_indexed(schema)
    width = domain.dmax - domain.dmin
    values = [domain.dmin, domain.dmax, domain.dmin + width * 0.37]
    values += [domain.dmin + width * (k / 7) for k in range(1, 7)]
    leaves, plaintexts, dummies, indices, parsed, rejected = encode_batch(
        values, schema, domain.leaf_offset
    )
    reference = [make_dummy(schema, value) for value in values]
    assert plaintexts == [serialize_record(r, schema) for r in reference]
    assert leaves == [
        domain.leaf_offset(r.indexed_value(schema)) for r in reference
    ]
    assert (dummies, indices, parsed, rejected) == (
        b"\x01" * len(values), list(range(len(values))), 0, 0
    )
