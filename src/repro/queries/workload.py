"""Query workloads for the reconstruction attacks.

Theorem 1.1 distinguishes two regimes by workload: *all* ``2^n`` subset
queries (exponential attack) versus polynomially many random subsets
(LP-decoding attack).  The random workload is generated here (the
exhaustive attack builds its own masks), and the :class:`Workload` class
packs a whole workload into one ``(m, n)`` boolean matrix so the answering
mechanisms and the LP decoder can process every query at once instead of
looping in Python.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import scipy.sparse

from repro.queries.query import SubsetQuery, _validate_binary
from repro.utils.rng import RngSeed, ensure_rng


class Workload:
    """An ``(m, n)`` batch of subset queries packed as one boolean matrix.

    Row ``i`` is the membership mask of query ``i``.  The packed form gives
    the hot paths what they need without per-query Python overhead:

    * :meth:`true_answers` computes all ``m`` exact answers with one sparse
      matrix-vector product (``A @ x``);
    * :meth:`matrix` exposes dense views in any dtype plus a cached
      :class:`scipy.sparse.csr_matrix` for the LP solver, so feasibility and
      least-l1 decoding reuse one assembled matrix;
    * indexing/iteration recovers per-query :class:`SubsetQuery` objects for
      code that still wants the one-at-a-time interface.

    A workload is either *mask-backed* (built from a dense boolean matrix,
    the common case) or *CSR-backed* (built by :meth:`from_csr`); either
    representation materializes the other lazily and caches it, so hot
    paths pay only for the view they touch.
    """

    __slots__ = ("_masks", "_csr", "_shape")

    def __init__(self, masks: np.ndarray | Sequence[Sequence[bool]], copy: bool = True):
        array = np.array(masks, dtype=bool, copy=copy)
        if array.ndim != 2:
            raise ValueError(f"a workload must be a 2-D mask matrix, got ndim={array.ndim}")
        self._check_shape(array.shape)
        array.setflags(write=False)
        self._masks: np.ndarray | None = array
        self._csr: scipy.sparse.csr_matrix | None = None
        self._shape = array.shape

    @staticmethod
    def _check_shape(shape: tuple[int, int]) -> None:
        if shape[0] == 0:
            raise ValueError("a workload needs at least one query")
        if shape[1] == 0:
            raise ValueError("a workload must address at least one position")

    @classmethod
    def from_csr(cls, matrix: scipy.sparse.spmatrix, copy: bool = True) -> "Workload":
        """Build a workload directly from a sparse 0/1 matrix.

        The CSR (float64, the dtype the LP solver consumes) becomes the
        cached assembly immediately; the dense boolean mask matrix is only
        materialized if something asks for it.  This is how census-scale
        block-diagonal workloads are built without ever holding an
        ``(m, n)`` dense matrix in memory.
        """
        csr = scipy.sparse.csr_matrix(matrix, dtype=np.float64, copy=copy)
        cls._check_shape(csr.shape)
        instance = cls.__new__(cls)
        instance._masks = None
        instance._csr = csr
        instance._shape = (int(csr.shape[0]), int(csr.shape[1]))
        return instance

    @property
    def _mask_view(self) -> np.ndarray:
        """The dense boolean masks, materialized from the CSR on demand."""
        if self._masks is None:
            masks = self._csr.toarray().astype(bool)
            masks.setflags(write=False)
            self._masks = masks
        return self._masks

    @classmethod
    def from_queries(cls, queries: Sequence[SubsetQuery]) -> "Workload":
        """Pack a list of :class:`SubsetQuery` into one workload."""
        if not queries:
            raise ValueError("a workload needs at least one query")
        n = queries[0].n
        for query in queries:
            if query.n != n:
                raise ValueError("all queries must address the same dataset size")
        return cls(np.stack([query.mask for query in queries]), copy=False)

    @classmethod
    def coerce(cls, value: "Workload" | Sequence[SubsetQuery]) -> "Workload":
        """Accept either a :class:`Workload` or a sequence of queries."""
        if isinstance(value, cls):
            return value
        return cls.from_queries(list(value))

    @classmethod
    def random(
        cls, n: int, count: int, density: float = 0.5, rng: RngSeed = None
    ) -> "Workload":
        """``count`` i.i.d. random subsets, each position included w.p. ``density``.

        This is the polynomial workload of Theorem 1.1(ii).  All ``count * n``
        inclusion coin-flips come from one vectorized draw (row-major, so the
        stream matches ``count`` sequential per-query draws); degenerate
        all-empty rows are then redrawn so every query is informative.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if not 0.0 < density < 1.0:
            raise ValueError(f"density must lie in (0, 1), got {density}")
        generator = ensure_rng(rng)
        masks = generator.random((count, n)) < density
        empty = ~masks.any(axis=1)
        while empty.any():
            masks[empty] = generator.random((int(empty.sum()), n)) < density
            empty = ~masks.any(axis=1)
        return cls(masks, copy=False)

    @property
    def m(self) -> int:
        """Number of queries in the workload."""
        return int(self._shape[0])

    @property
    def n(self) -> int:
        """The dataset size every query addresses."""
        return int(self._shape[1])

    @property
    def masks(self) -> np.ndarray:
        """The packed ``(m, n)`` boolean mask matrix (read-only)."""
        return self._mask_view

    def matrix(self, dtype: np.dtype | type = np.float64, sparse: bool = False):
        """The workload as an ``(m, n)`` matrix.

        ``sparse=True`` returns a CSR matrix; the float64 CSR is assembled
        once and cached, so the LP attack's feasibility and least-l1 modes
        (and repeated solves over the same workload) share one assembly.
        """
        if sparse:
            if self._csr is None:
                self._csr = scipy.sparse.csr_matrix(self._mask_view, dtype=np.float64)
            if np.dtype(dtype) == np.float64:
                return self._csr
            return self._csr.astype(dtype)
        return np.asarray(self._mask_view, dtype=dtype)

    def true_answers(self, data: np.ndarray, validate: bool = True) -> np.ndarray:
        """All ``m`` exact answers ``A @ x`` on binary data ``x``, as int64.

        Computed as one CSR matrix-vector product against the same cached
        assembly the LP decoder uses — on realistic workloads the sparse
        matvec beats the dense boolean matmul (which must promote the whole
        mask matrix to int64) by one to two orders of magnitude.  The
        float64 accumulation is exact: every term is 0 or 1 and every count
        is at most ``n``, far below 2^53.  Answerers that validated their
        data once at construction pass ``validate=False`` to skip the O(n)
        binary check.
        """
        if validate:
            data = _validate_binary(np.asarray(data), self.n)
        else:
            data = np.asarray(data)
        products = self.matrix(sparse=True) @ data.astype(np.float64, copy=False)
        return products.astype(np.int64)

    def query(self, index: int) -> SubsetQuery:
        """Query ``index`` as a standalone :class:`SubsetQuery`."""
        return SubsetQuery(self._mask_view[index])

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, index: int) -> SubsetQuery:
        return self.query(index)

    def __iter__(self) -> Iterator[SubsetQuery]:
        for row in self._mask_view:
            yield SubsetQuery(row)

    def __repr__(self) -> str:
        return f"Workload(m={self.m}, n={self.n})"
