"""Cell domains: the histogram view of a finite-attribute dataset.

Every synthesizer in :mod:`repro.synth` works on the same representation:
a dataset over finitely many attributes is a *histogram* over the product
of the attribute domains.  One cell is one full combination of attribute
values; the histogram counts how many records occupy each cell.  In that
view a :class:`~repro.queries.workload.Workload` over ``n = |cells|``
positions is exactly a batch of linear counting queries — the PR 2 batched
query machinery (one sparse matvec for all answers) applies to microdata
synthesis unchanged.

:class:`CellDomain` owns the two directions of the encoding:

* :meth:`CellDomain.encode` — dataset → integer histogram (mixed-radix
  cell indexing, one vectorized pass);
* :meth:`CellDomain.to_dataset` — integer histogram → synthetic microdata
  (cells expanded in index order, so decoding is deterministic).

:func:`integerize` rounds a non-negative weight vector to an integer
histogram of a prescribed total by the largest-remainder method — the
deterministic post-processing used to turn fractional synthetic
histograms into record counts.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema

__all__ = ["CellDomain", "integerize"]

#: Refuse to build cell domains beyond this many cells (the histogram and
#: every workload column scale with it).
MAX_CELLS = 2_000_000


class CellDomain:
    """The product domain of finitely many named attributes.

    Args:
        names: attribute names, in order.
        levels: per-attribute value tuples; cell ``(v_0, ..., v_k)`` maps to
            the mixed-radix index ``((i_0 * d_1 + i_1) * d_2 + i_2) ...``
            where ``i_j`` is the position of ``v_j`` in ``levels[j]``.
        schema: optional :class:`~repro.data.schema.Schema` covering exactly
            ``names``; required for :meth:`to_dataset`.
    """

    def __init__(
        self,
        names: Sequence[str],
        levels: Sequence[Sequence[Hashable]],
        schema: Schema | None = None,
    ):
        if len(names) != len(levels):
            raise ValueError("names and levels must align")
        if not names:
            raise ValueError("a cell domain needs at least one attribute")
        self.names: tuple[str, ...] = tuple(names)
        self.levels: tuple[tuple[Hashable, ...], ...] = tuple(
            tuple(level) for level in levels
        )
        for name, level in zip(self.names, self.levels):
            if not level:
                raise ValueError(f"attribute {name!r} has an empty level set")
            if len(set(level)) != len(level):
                raise ValueError(f"attribute {name!r} has duplicate levels")
        size = 1
        for level in self.levels:
            size *= len(level)
        if size > MAX_CELLS:
            raise ValueError(
                f"cell domain has {size:,} cells, above the cap of "
                f"{MAX_CELLS:,}; project out an attribute or bin it"
            )
        self.size = int(size)
        self.schema = schema
        self._index_maps: tuple[dict[Hashable, int], ...] = tuple(
            {value: i for i, value in enumerate(level)} for level in self.levels
        )
        # Mixed-radix place values, most-significant attribute first.
        radices = np.ones(len(self.levels), dtype=np.int64)
        for j in range(len(self.levels) - 2, -1, -1):
            radices[j] = radices[j + 1] * len(self.levels[j + 1])
        self._radices = radices

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, names: Sequence[str] | None = None
    ) -> "CellDomain":
        """The cell domain spanned by a dataset's schema domains.

        ``names`` defaults to every attribute; identifier columns (e.g.
        ``person_id``) should be excluded by the caller — a synthesizer
        that kept them would be a copy machine, not a release.
        """
        if names is None:
            names = dataset.schema.names
        levels = [tuple(dataset.schema.attribute(name).domain) for name in names]
        return cls(names, levels, schema=dataset.schema.project(names))

    def index_of(self, values: Sequence[Hashable]) -> int:
        """Mixed-radix cell index of one value combination."""
        if len(values) != len(self.names):
            raise ValueError(f"expected {len(self.names)} values, got {len(values)}")
        index = 0
        for value, index_map, name in zip(values, self._index_maps, self.names):
            try:
                level = index_map[value]
            except KeyError:
                raise ValueError(f"{value!r} is not a level of {name!r}") from None
            index = index * len(index_map) + level
        return int(index)

    def cell(self, index: int) -> tuple[Hashable, ...]:
        """The value combination at ``index`` (inverse of :meth:`index_of`)."""
        if not 0 <= index < self.size:
            raise ValueError(f"cell index {index} out of range [0, {self.size})")
        values = []
        for level in reversed(self.levels):
            index, position = divmod(index, len(level))
            values.append(level[position])
        return tuple(reversed(values))

    def cell_indices(self, dataset: Dataset) -> np.ndarray:
        """The cell index of every record, in row order."""
        indices = np.zeros(len(dataset), dtype=np.int64)
        for name, index_map in zip(self.names, self._index_maps):
            column = dataset.column(name)
            try:
                positions = np.fromiter(
                    (index_map[value] for value in column),
                    dtype=np.int64,
                    count=len(column),
                )
            except KeyError as error:
                raise ValueError(
                    f"value {error.args[0]!r} of attribute {name!r} is outside "
                    "the cell domain"
                ) from None
            indices = indices * len(index_map) + positions
        return indices

    def encode(self, dataset: Dataset) -> np.ndarray:
        """The dataset's cell histogram (int64, length :attr:`size`)."""
        return np.bincount(self.cell_indices(dataset), minlength=self.size).astype(
            np.int64
        )

    def decode(self, histogram: np.ndarray) -> list[tuple[Hashable, ...]]:
        """Expand an integer histogram into records, in cell-index order."""
        histogram = np.asarray(histogram)
        if histogram.shape != (self.size,):
            raise ValueError(
                f"histogram has shape {histogram.shape}, domain has {self.size} cells"
            )
        if np.any(histogram < 0):
            raise ValueError("histogram counts must be non-negative")
        records: list[tuple[Hashable, ...]] = []
        for index in np.flatnonzero(histogram):
            records.extend([self.cell(int(index))] * int(histogram[index]))
        return records

    def to_dataset(self, histogram: np.ndarray) -> Dataset:
        """An integer histogram as synthetic microdata over :attr:`schema`."""
        if self.schema is None:
            raise ValueError(
                "this CellDomain carries no schema; build it with from_dataset"
            )
        return Dataset(self.schema, self.decode(histogram), validate=False)

    def __repr__(self) -> str:
        shape = " x ".join(str(len(level)) for level in self.levels)
        return f"CellDomain({', '.join(self.names)}; {shape} = {self.size} cells)"


def integerize(weights: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative weights to an integer histogram summing to ``total``.

    Largest-remainder rounding: scale to the target total, take floors, and
    hand the remaining units to the cells with the largest fractional parts
    (ties broken by cell index, so the result is deterministic).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if total < 0:
        raise ValueError("total must be non-negative")
    if total == 0:
        return np.zeros(weights.size, dtype=np.int64)
    mass = float(weights.sum())
    if mass <= 0:
        raise ValueError("weights must have positive mass when total > 0")
    scaled = weights * (total / mass)
    base = np.floor(scaled).astype(np.int64)
    leftover = int(total - base.sum())
    if leftover > 0:
        order = np.argsort(-(scaled - base), kind="stable")
        base[order[:leftover]] += 1
    return base
