"""Generalized (anonymized) datasets — the ``x'`` of the paper's Section 1.1.

A k-anonymizer consumes a raw :class:`~repro.data.dataset.Dataset` and emits
a :class:`GeneralizedDataset`: same schema, but every field is a
:class:`~repro.data.hierarchy.GeneralizedValue` (raw fields appear as
singleton cover sets).  Keeping cover sets around — instead of opaque strings
like ``"1234*"`` — is what lets the PSO attacker of Theorem 2.10 turn an
equivalence class directly into a predicate over *raw* records.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

from repro.data.dataset import Dataset, Record
from repro.data.hierarchy import GeneralizedValue
from repro.data.schema import Schema


class GeneralizedRecord:
    """One anonymized row: a tuple of generalized values in schema order."""

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Sequence[GeneralizedValue]):
        if len(values) != len(schema):
            raise ValueError(
                f"record has {len(values)} fields, schema has {len(schema)}"
            )
        for value in values:
            if not isinstance(value, GeneralizedValue):
                raise TypeError(
                    f"generalized records hold GeneralizedValue fields, got "
                    f"{type(value).__name__}"
                )
        self._schema = schema
        self._values: tuple[GeneralizedValue, ...] = tuple(values)

    @property
    def schema(self) -> Schema:
        """The schema this record conforms to."""
        return self._schema

    @property
    def values(self) -> tuple[GeneralizedValue, ...]:
        """The generalized values in schema order."""
        return self._values

    def __getitem__(self, name: str) -> GeneralizedValue:
        return self._values[self._schema.index_of(name)]

    def matches(self, record: Record | Sequence[object]) -> bool:
        """Whether a raw record is consistent with this generalized row.

        True iff every attribute's raw value lies in the corresponding cover
        set.  This is the membership test underlying the equivalence-class
        predicates of Theorem 2.10.
        """
        raw = record.values if isinstance(record, Record) else tuple(record)
        if len(raw) != len(self._values):
            return False
        return all(gv.matches(v) for gv, v in zip(self._values, raw))

    @classmethod
    def from_raw(cls, record: Record) -> "GeneralizedRecord":
        """Wrap a raw record as singleton generalized values (no coarsening)."""
        return cls(record.schema, [GeneralizedValue.raw(v) for v in record.values])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GeneralizedRecord) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __iter__(self) -> Iterator[GeneralizedValue]:
        return iter(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{n}={v.label}" for n, v in zip(self._schema.names, self._values)
        )
        return f"GeneralizedRecord({fields})"


class GeneralizedDataset:
    """An anonymized release: generalized records under the data's schema.

    Attributes:
        schema: the (unchanged) schema of the underlying data.
    """

    def __init__(self, schema: Schema, records: Iterable[GeneralizedRecord]):
        self.schema = schema
        self._records: tuple[GeneralizedRecord, ...] = tuple(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[GeneralizedRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> GeneralizedRecord:
        return self._records[index]

    # -- k-anonymity structure --------------------------------------------------

    def equivalence_classes(self) -> dict[tuple[GeneralizedValue, ...], list[int]]:
        """Row indices grouped by identical generalized rows.

        In the paper's words: the anonymized data "can [be] viewed as a
        collection of equivalence classes each of k or more records".
        """
        classes: dict[tuple[GeneralizedValue, ...], list[int]] = defaultdict(list)
        for index, record in enumerate(self._records):
            classes[record.values].append(index)
        return dict(classes)

    # -- consistency with the raw data ---------------------------------------------

    def is_consistent_with(self, dataset: Dataset) -> bool:
        """Whether this release could have come from ``dataset``.

        Tries the cheap row-aligned check first (Mondrian preserves row
        order); when rows do not align — row-permuting anonymizers such as
        the agreement anonymizer — falls back to a greedy multiset cover
        (each raw record consumed by one generalized row).  The greedy
        matching is exact for the anonymizers in this library, whose rows
        each cover their own source record.
        """
        if len(self) != len(dataset):
            return False
        if all(generalized.matches(raw) for generalized, raw in zip(self._records, dataset)):
            return True
        unmatched = list(dataset)
        for generalized in self._records:
            for i, raw in enumerate(unmatched):
                if generalized.matches(raw):
                    unmatched.pop(i)
                    break
            else:
                return False
        return True

    def __repr__(self) -> str:
        return f"GeneralizedDataset({len(self)} records)"
