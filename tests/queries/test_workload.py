"""Tests for query-workload generators."""

import numpy as np
import pytest
import scipy.sparse

from repro.queries.workload import Workload


class TestRandomSubsetQueries:
    def test_count_and_size(self):
        queries = list(Workload.random(30, 12, rng=0))
        assert len(queries) == 12
        assert all(q.n == 30 for q in queries)

    def test_no_empty_queries(self):
        queries = list(Workload.random(3, 50, density=0.1, rng=1))
        assert all(q.size >= 1 for q in queries)

    def test_density_controls_size(self):
        sparse = list(Workload.random(200, 30, density=0.1, rng=2))
        dense = list(Workload.random(200, 30, density=0.9, rng=2))
        assert sum(q.size for q in sparse) < sum(q.size for q in dense)

    def test_deterministic(self):
        a = list(Workload.random(20, 5, rng=3))
        b = list(Workload.random(20, 5, rng=3))
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Workload.random(0, 5)
        with pytest.raises(ValueError):
            Workload.random(5, 0)
        with pytest.raises(ValueError):
            Workload.random(5, 5, density=1.0)


class TestCsrBackedWorkloads:
    def test_from_csr_round_trips(self):
        reference = Workload.random(8, 12, rng=0)
        rebuilt = Workload.from_csr(reference.matrix(sparse=True))
        assert rebuilt.m == reference.m and rebuilt.n == reference.n
        assert np.array_equal(rebuilt.masks, reference.masks)

    def test_from_csr_is_lazy_about_masks(self):
        csr = scipy.sparse.csr_matrix(np.eye(4))
        workload = Workload.from_csr(csr)
        # The dense boolean view is only built when something asks for it.
        assert workload._masks is None
        assert workload.masks.shape == (4, 4)
        assert workload._masks is not None

    def test_from_csr_shares_assembly_without_copy(self):
        csr = scipy.sparse.csr_matrix(np.eye(3))
        workload = Workload.from_csr(csr, copy=False)
        # copy=False shares the underlying CSR buffers with the input.
        assert np.shares_memory(workload.matrix(sparse=True).data, csr.data)

    def test_from_csr_rejects_empty(self):
        with pytest.raises(ValueError):
            Workload.from_csr(scipy.sparse.csr_matrix((0, 5)))
        with pytest.raises(ValueError):
            Workload.from_csr(scipy.sparse.csr_matrix((5, 0)))
