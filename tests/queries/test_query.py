"""Tests for subset queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload


class TestSubsetQuery:
    def test_true_answer(self):
        query = SubsetQuery([True, False, True, True])
        data = np.array([1, 1, 0, 1])
        assert query.true_answer(data) == 2

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            SubsetQuery(np.array([], dtype=bool))

    def test_two_dimensional_mask_rejected(self):
        with pytest.raises(ValueError):
            SubsetQuery(np.zeros((2, 2), dtype=bool))

    def test_mask_is_readonly(self):
        query = SubsetQuery([True, False])
        with pytest.raises(ValueError):
            query.mask[0] = False

    def test_equality_and_hash(self):
        a = SubsetQuery([True, False])
        b = SubsetQuery([True, False])
        c = SubsetQuery([False, True])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_wrong_data_shape_rejected(self):
        query = SubsetQuery([True, False])
        with pytest.raises(ValueError):
            query.true_answer(np.array([1, 0, 1]))

    def test_non_binary_data_rejected(self):
        query = SubsetQuery([True, False])
        with pytest.raises(ValueError):
            query.true_answer(np.array([2, 0]))

    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_full_query_counts_all_ones(self, bits):
        data = np.array(bits)
        query = SubsetQuery(np.ones(len(bits), dtype=bool))
        assert query.true_answer(data) == sum(bits)


class TestQueriesToMatrix:
    """Queries stack into one matrix through ``Workload.from_queries``."""

    def test_stacks_masks(self):
        queries = [SubsetQuery([True, False]), SubsetQuery([True, True])]
        matrix = Workload.from_queries(queries).matrix()
        assert matrix.shape == (2, 2)
        assert matrix.tolist() == [[1.0, 0.0], [1.0, 1.0]]

    def test_mismatched_sizes_rejected(self):
        queries = [SubsetQuery([True]), SubsetQuery([True, False])]
        with pytest.raises(ValueError):
            Workload.from_queries(queries)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Workload.from_queries([])

    def test_dtype_option(self):
        queries = [SubsetQuery([True, False]), SubsetQuery([True, True])]
        workload = Workload.from_queries(queries)
        assert workload.matrix(dtype=np.int64).dtype == np.int64
        assert workload.matrix(dtype=bool).dtype == bool

    def test_sparse_option(self):
        import scipy.sparse

        queries = [SubsetQuery([True, False]), SubsetQuery([False, True])]
        workload = Workload.from_queries(queries)
        matrix = workload.matrix(sparse=True)
        assert scipy.sparse.issparse(matrix)
        assert matrix.format == "csr"
        assert np.array_equal(matrix.toarray(), workload.matrix())
