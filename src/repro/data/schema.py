"""Schemas: named, typed, privacy-annotated attribute lists.

The privacy annotations (:class:`AttributeKind`) encode the vocabulary of the
re-identification literature the paper builds on: *direct identifiers* (name,
SSN — what HIPAA safe harbor redacts), *quasi-identifiers* (ZIP, birth date,
sex — Sweeney's linkage keys), and *sensitive* attributes (diagnosis — what
the attacker is after).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

from repro.data.domain import Domain


class AttributeKind(Enum):
    """Privacy role of an attribute, following the k-anonymity literature."""

    IDENTIFIER = "identifier"  #: directly identifying (name, SSN); redacted on release
    QUASI_IDENTIFIER = "quasi-identifier"  #: linkable in combination (ZIP, DOB, sex)
    SENSITIVE = "sensitive"  #: the secret the attacker targets (diagnosis)
    INSENSITIVE = "insensitive"  #: neither identifying nor secret


@dataclass(frozen=True)
class Attribute:
    """A named, typed column with a privacy role."""

    name: str
    domain: Domain
    kind: AttributeKind = AttributeKind.INSENSITIVE

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")


class Schema:
    """An ordered collection of attributes; the type of a record.

    Records are plain tuples aligned with the schema's attribute order;
    :class:`~repro.data.dataset.Record` provides name-based access on top.
    """

    def __init__(self, attributes: Sequence[Attribute]):
        if not attributes:
            raise ValueError("a schema needs at least one attribute")
        names = [attribute.name for attribute in attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema: {names}")
        self.attributes: tuple[Attribute, ...] = tuple(attributes)
        self._index = {attribute.name: i for i, attribute in enumerate(attributes)}

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(attribute.name for attribute in self.attributes)

    def index_of(self, name: str) -> int:
        """Column index of the attribute called ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no attribute named {name!r} in schema {self.names}") from None

    def attribute(self, name: str) -> Attribute:
        """The attribute called ``name``."""
        return self.attributes[self.index_of(name)]

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash(self.attributes)

    def names_of_kind(self, kind: AttributeKind) -> tuple[str, ...]:
        """Names of all attributes with privacy role ``kind``."""
        return tuple(a.name for a in self.attributes if a.kind == kind)

    @property
    def identifiers(self) -> tuple[str, ...]:
        """Direct identifier attribute names."""
        return self.names_of_kind(AttributeKind.IDENTIFIER)

    @property
    def quasi_identifiers(self) -> tuple[str, ...]:
        """Quasi-identifier attribute names."""
        return self.names_of_kind(AttributeKind.QUASI_IDENTIFIER)

    @property
    def sensitive(self) -> tuple[str, ...]:
        """Sensitive attribute names."""
        return self.names_of_kind(AttributeKind.SENSITIVE)

    def validate_record(self, record: Sequence[object]) -> None:
        """Raise ``ValueError`` when ``record`` does not fit the schema."""
        if len(record) != len(self.attributes):
            raise ValueError(
                f"record has {len(record)} fields, schema has {len(self.attributes)}"
            )
        for value, attribute in zip(record, self.attributes):
            if value not in attribute.domain:
                raise ValueError(
                    f"value {value!r} is outside the domain of attribute "
                    f"{attribute.name!r}"
                )

    def project(self, names: Sequence[str]) -> "Schema":
        """A schema containing only the attributes in ``names`` (in that order)."""
        return Schema([self.attribute(name) for name in names])

    def drop(self, names: Sequence[str]) -> "Schema":
        """A schema with the attributes in ``names`` removed."""
        remove = set(names)
        missing = remove - set(self.names)
        if missing:
            raise KeyError(f"cannot drop unknown attributes: {sorted(missing)}")
        return Schema([a for a in self.attributes if a.name not in remove])

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.kind.value}" for a in self.attributes)
        return f"Schema({cols})"
