"""Subset queries over binary datasets.

A :class:`SubsetQuery` is the paper's ``q subseteq [n]``: a subset of record
positions whose true answer on ``x in {0,1}^n`` is ``sum_{i in q} x_i``.
Queries are stored as boolean numpy masks so attack code can evaluate whole
workloads with matrix arithmetic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class SubsetQuery:
    """An index-subset counting query on a length-``n`` binary dataset."""

    __slots__ = ("_mask",)

    def __init__(self, mask: Sequence[bool] | np.ndarray):
        array = np.asarray(mask, dtype=bool)
        if array.ndim != 1:
            raise ValueError("a query mask must be one-dimensional")
        if array.size == 0:
            raise ValueError("a query must be over at least one position")
        self._mask = array
        self._mask.setflags(write=False)

    @property
    def mask(self) -> np.ndarray:
        """The boolean membership mask (read-only)."""
        return self._mask

    @property
    def n(self) -> int:
        """The dataset size this query addresses."""
        return int(self._mask.size)

    @property
    def size(self) -> int:
        """Number of positions in the subset, ``|q|``."""
        return int(self._mask.sum())

    def indices(self) -> np.ndarray:
        """The positions in the subset, ascending."""
        return np.flatnonzero(self._mask)

    def true_answer(self, data: np.ndarray) -> int:
        """Exact answer ``sum_{i in q} x_i`` on binary data ``x``."""
        data = _validate_binary(data, self.n)
        return int(data[self._mask].sum())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubsetQuery) and np.array_equal(self._mask, other._mask)

    def __hash__(self) -> int:
        return hash(self._mask.tobytes())

    def __repr__(self) -> str:
        return f"SubsetQuery(n={self.n}, size={self.size})"


def _validate_binary(data: np.ndarray, n: int) -> np.ndarray:
    data = np.asarray(data)
    if data.shape != (n,):
        raise ValueError(f"data must have shape ({n},), got {data.shape}")
    if not np.isin(data, (0, 1)).all():
        raise ValueError("data must be binary (0/1 entries)")
    return data.astype(np.int64)
