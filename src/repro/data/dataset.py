"""Immutable datasets: the ``x = (x_1, ..., x_n)`` of the paper.

A :class:`Dataset` couples a :class:`~repro.data.schema.Schema` with a tuple
of records.  Records stay plain tuples internally (cheap, hashable); the
:class:`Record` wrapper adds name-based access for predicate code, which is
how the paper's predicates ``p : X -> {0,1}`` are written here.

Datasets are *immutable*: anonymizers, mechanisms and attacks all return new
datasets, which keeps the provenance of each experiment auditable.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.schema import Schema


class Record:
    """A single row with attribute-name access.

    Records compare equal (and hash) by their underlying value tuple, so two
    records with the same field values are interchangeable — matching the
    paper's convention that predicates act on record *values*, never on
    positions in the dataset.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: tuple):
        self._schema = schema
        self._values = values

    @property
    def schema(self) -> Schema:
        """The schema this record conforms to."""
        return self._schema

    @property
    def values(self) -> tuple:
        """The raw value tuple in schema order."""
        return self._values

    def __getitem__(self, name: str) -> object:
        return self._values[self._schema.index_of(name)]

    def get(self, name: str, default: object = None) -> object:
        """Value of attribute ``name``, or ``default`` when absent."""
        if name in self._schema:
            return self[name]
        return default

    def as_dict(self) -> dict[str, object]:
        """The record as an attribute-name -> value mapping."""
        return dict(zip(self._schema.names, self._values))

    def replace(self, **updates: object) -> "Record":
        """A copy of the record with the named attributes changed."""
        values = list(self._values)
        for name, value in updates.items():
            values[self._schema.index_of(name)] = value
        return Record(self._schema, tuple(values))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Record):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._schema.names, self._values))
        return f"Record({fields})"


class Dataset:
    """An immutable ordered collection of records over a shared schema."""

    def __init__(self, schema: Schema, records: Iterable[Sequence[object]], validate: bool = True):
        self.schema = schema
        rows: list[tuple] = []
        for record in records:
            values = record.values if isinstance(record, Record) else tuple(record)
            if validate:
                schema.validate_record(values)
            rows.append(values)
        self._rows: tuple[tuple, ...] = tuple(rows)
        self._column_cache: dict[str, tuple] = {}

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: Schema, rows: Iterable[Mapping[str, object]]) -> "Dataset":
        """Build a dataset from attribute-name -> value mappings."""
        names = schema.names
        return cls(schema, (tuple(row[name] for name in names) for row in rows))

    # -- basic access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Record]:
        return (Record(self.schema, values) for values in self._rows)

    def __getitem__(self, index: int) -> Record:
        return Record(self.schema, self._rows[index])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Dataset)
            and self.schema == other.schema
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.schema, self._rows))

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The raw value tuples (schema order), one per record."""
        return self._rows

    def column(self, name: str) -> tuple:
        """All values of attribute ``name``, in row order (cached)."""
        cached = self._column_cache.get(name)
        if cached is None:
            index = self.schema.index_of(name)
            cached = tuple(row[index] for row in self._rows)
            self._column_cache[name] = cached
        return cached

    # -- relational-ish operations ----------------------------------------------

    def project(self, names: Sequence[str]) -> "Dataset":
        """Keep only the attributes in ``names`` (in the given order)."""
        projected_schema = self.schema.project(names)
        indices = [self.schema.index_of(name) for name in names]
        return Dataset(
            projected_schema,
            (tuple(row[i] for i in indices) for row in self._rows),
            validate=False,
        )

    def drop(self, names: Sequence[str]) -> "Dataset":
        """Remove the attributes in ``names`` (e.g. redact direct identifiers)."""
        keep = [name for name in self.schema.names if name not in set(names)]
        # Validate the drop list eagerly so typos don't silently keep columns.
        self.schema.drop(names)
        return self.project(keep)

    def filter(self, condition: Callable[[Record], bool]) -> "Dataset":
        """Records satisfying ``condition``, as a new dataset."""
        return Dataset(
            self.schema,
            (row for row in self._rows if condition(Record(self.schema, row))),
            validate=False,
        )

    def count(self, condition: Callable[[Record], bool]) -> int:
        """Number of records satisfying ``condition`` (the paper's M#q)."""
        return sum(1 for row in self._rows if condition(Record(self.schema, row)))

    # -- batched predicate evaluation ---------------------------------------------

    def conditions_mask(self, conditions: Mapping[str, frozenset]) -> np.ndarray:
        """Boolean row mask for a conjunction of per-attribute allowed sets.

        One set-membership pass per mentioned column — no per-row
        :class:`Record` objects, no Python call stack through predicate
        closures.  This is the batched evaluation path for structural
        predicates (:class:`~repro.core.predicate.Predicate` with
        ``conditions``).
        """
        mask = np.ones(len(self._rows), dtype=bool)
        for name, allowed in conditions.items():
            if not isinstance(allowed, (set, frozenset)):
                allowed = frozenset(allowed)
            column = self.column(name)
            mask &= np.fromiter(
                (value in allowed for value in column), dtype=bool, count=len(column)
            )
            if not mask.any():
                break
        return mask

    def match_mask(self, predicate: Callable[[Record], bool]) -> np.ndarray:
        """Boolean row mask of predicate matches.

        Predicates exposing a ``match_mask(dataset)`` method (structured
        :class:`~repro.core.predicate.Predicate` instances) are evaluated
        batched; arbitrary callables fall back to a per-record loop.
        """
        batched = getattr(predicate, "match_mask", None)
        if batched is not None:
            return batched(self)
        return np.fromiter(
            (bool(predicate(Record(self.schema, row))) for row in self._rows),
            dtype=bool,
            count=len(self._rows),
        )

    def match_count(self, predicate: Callable[[Record], bool]) -> int:
        """``sum_i p(x_i)`` via the batched evaluation path."""
        return int(np.count_nonzero(self.match_mask(predicate)))

    def replace_records(self, records: Iterable[Sequence[object]]) -> "Dataset":
        """A dataset with the same schema and new records (unvalidated schema swap)."""
        return Dataset(self.schema, records, validate=False)

    # -- grouping / statistics ---------------------------------------------------

    def value_counts(self, name: str) -> Counter:
        """Multiplicity of each value of attribute ``name``."""
        return Counter(self.column(name))

    def group_by(self, names: Sequence[str]) -> dict[tuple, list[int]]:
        """Row indices grouped by their values on the attributes ``names``.

        This is the *equivalence class* structure of the k-anonymity
        literature: each key is a combination of values on ``names``, each
        value the indices of rows sharing it.
        """
        indices = [self.schema.index_of(name) for name in names]
        groups: dict[tuple, list[int]] = defaultdict(list)
        for row_number, row in enumerate(self._rows):
            groups[tuple(row[i] for i in indices)].append(row_number)
        return dict(groups)

    def multiplicity(self, record: Sequence[object] | Record) -> int:
        """How many rows equal ``record`` exactly."""
        values = record.values if isinstance(record, Record) else tuple(record)
        return sum(1 for row in self._rows if row == values)

    def unique_fraction(self, names: Sequence[str]) -> float:
        """Fraction of rows whose ``names``-projection is unique in the data.

        This is Sweeney's uniqueness statistic: with
        ``names = ("zip", "birthdate", "sex")`` it measures how much of the
        population is singled out by that quasi-identifier combination.
        """
        if not self._rows:
            raise ValueError("uniqueness of an empty dataset is undefined")
        groups = self.group_by(names)
        unique_rows = sum(len(rows) for rows in groups.values() if len(rows) == 1)
        return unique_rows / len(self._rows)

    def head(self, count: int = 5) -> "Dataset":
        """The first ``count`` records (for display)."""
        return Dataset(self.schema, self._rows[:count], validate=False)

    def __repr__(self) -> str:
        return f"Dataset({len(self)} records, schema={self.schema.names})"
