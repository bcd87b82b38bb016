"""Relation schemas for the FRESQUE data model.

The paper assumes data sources produce records over a fixed relation
``D(A1, ..., An)`` and that queries are one-dimensional range queries over a
single numerical *indexed attribute* ``Aq`` (Section 2).  A :class:`Schema`
describes the attributes of such a relation and knows which attribute is
indexed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class AttributeType(enum.Enum):
    """Type of a relation attribute.

    Only :attr:`INT` and :attr:`FLOAT` attributes may be indexed, since the
    PINED-RQ index is a histogram over a numerical domain.
    """

    INT = "int"
    FLOAT = "float"
    STR = "str"

    def python_type(self) -> type:
        """Return the Python type used to hold values of this attribute."""
        return _TYPES[self]


_TYPES = {
    AttributeType.INT: int,
    AttributeType.FLOAT: float,
    AttributeType.STR: str,
}


@dataclass(frozen=True)
class Attribute:
    """A single attribute of a relation.

    Parameters
    ----------
    name:
        Attribute name, unique within its schema.
    type:
        The :class:`AttributeType` of the values.
    """

    name: str
    type: AttributeType

    def coerce(self, value: object) -> object:
        """Convert ``value`` to this attribute's Python type.

        Raises
        ------
        ValueError
            If the value cannot be converted.
        """
        target = _TYPES[self.type]
        try:
            return target(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"cannot coerce {value!r} to attribute {self.name!r} "
                f"of type {self.type.value}"
            ) from exc


class SchemaError(ValueError):
    """Raised for malformed schemas or records that do not match a schema."""


@dataclass(frozen=True)
class Schema:
    """An ordered set of attributes plus the indexed attribute.

    Parameters
    ----------
    name:
        Human-readable relation name (e.g. ``"nasa_log"``).
    attributes:
        Ordered attributes of the relation.
    indexed_attribute:
        Name of the attribute over which range queries are evaluated.  Must
        name an INT or FLOAT attribute.
    """

    name: str
    attributes: tuple[Attribute, ...]
    indexed_attribute: str
    _index_pos: int = field(init=False, repr=False, compare=False, default=-1)
    _py_types: tuple = field(init=False, repr=False, compare=False, default=())
    _dummy_filler: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        names = [attr.name for attr in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema {self.name!r}")
        if self.indexed_attribute not in names:
            raise SchemaError(
                f"indexed attribute {self.indexed_attribute!r} not in schema "
                f"{self.name!r}"
            )
        pos = names.index(self.indexed_attribute)
        if self.attributes[pos].type is AttributeType.STR:
            raise SchemaError(
                f"indexed attribute {self.indexed_attribute!r} must be numerical"
            )
        object.__setattr__(self, "_index_pos", pos)
        object.__setattr__(
            self, "_py_types", tuple(_TYPES[attr.type] for attr in self.attributes)
        )
        object.__setattr__(
            self,
            "_dummy_filler",
            tuple(
                None
                if position == pos
                else ("" if attr.type is AttributeType.STR else _TYPES[attr.type](0))
                for position, attr in enumerate(self.attributes)
            ),
        )

    @property
    def arity(self) -> int:
        """Number of attributes in the relation."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Names of all attributes, in schema order."""
        return tuple(attr.name for attr in self.attributes)

    @property
    def python_types(self) -> tuple[type, ...]:
        """The Python type of each attribute, in schema order."""
        return self._py_types

    @property
    def indexed_position(self) -> int:
        """Position of the indexed attribute within the schema."""
        return self._index_pos

    @property
    def dummy_filler(self) -> tuple:
        """Filler values for dummy records (``None`` at the indexed position).

        STR attributes fill with ``""``, numerical ones with their zero, so
        a dummy serializes to the same size class as a minimal real record.
        """
        return self._dummy_filler

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name``.

        Raises
        ------
        SchemaError
            If no such attribute exists.
        """
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"no attribute {name!r} in schema {self.name!r}")

    def position(self, name: str) -> int:
        """Return the position of attribute ``name`` within the schema."""
        for pos, attr in enumerate(self.attributes):
            if attr.name == name:
                return pos
        raise SchemaError(f"no attribute {name!r} in schema {self.name!r}")

    def coerce_values(self, values: tuple) -> tuple:
        """Coerce a value tuple to the schema's attribute types.

        Raises
        ------
        SchemaError
            If the tuple arity does not match the schema.
        """
        if len(values) != len(self.attributes):
            raise SchemaError(
                f"record has {len(values)} values, schema {self.name!r} "
                f"expects {self.arity}"
            )
        try:
            return tuple(
                target(value)
                for target, value in zip(self._py_types, values)
            )
        except (TypeError, ValueError):
            # Re-run attribute by attribute for the precise error message.
            return tuple(
                attr.coerce(value)
                for attr, value in zip(self.attributes, values)
            )


def nasa_log_schema() -> Schema:
    """Schema of the NASA HTTP log dataset used in the paper's evaluation.

    Five attributes; range queries are evaluated over the reply size in
    bytes (the paper's *reply byte* attribute, binned at 1 KB).
    """
    return Schema(
        name="nasa_log",
        attributes=(
            Attribute("host", AttributeType.STR),
            Attribute("timestamp", AttributeType.INT),
            Attribute("request", AttributeType.STR),
            Attribute("status", AttributeType.INT),
            Attribute("reply_bytes", AttributeType.INT),
        ),
        indexed_attribute="reply_bytes",
    )


def gowalla_schema() -> Schema:
    """Schema of the Gowalla check-in dataset used in the paper's evaluation.

    Three attributes; range queries are evaluated over the check-in time
    (binned at one hour).
    """
    return Schema(
        name="gowalla",
        attributes=(
            Attribute("user_id", AttributeType.INT),
            Attribute("checkin_time", AttributeType.INT),
            Attribute("location_id", AttributeType.INT),
        ),
        indexed_attribute="checkin_time",
    )


def flu_survey_schema() -> Schema:
    """Schema for the FluTracking-style participatory surveillance use case
    motivating the paper (Sections 1 and 8): weekly symptom reports indexed
    by body temperature (tenths of a degree Celsius).
    """
    return Schema(
        name="flu_survey",
        attributes=(
            Attribute("participant", AttributeType.STR),
            Attribute("week", AttributeType.INT),
            Attribute("temperature_dc", AttributeType.INT),
            Attribute("symptoms", AttributeType.STR),
        ),
        indexed_attribute="temperature_dc",
    )
