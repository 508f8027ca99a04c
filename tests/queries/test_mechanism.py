"""Tests for the query-answering mechanisms and their noise envelopes."""

import numpy as np
import pytest

from repro.queries.mechanism import (
    BoundedNoiseAnswerer,
    ExactAnswerer,
    LaplaceAnswerer,
    RoundingAnswerer,
    SubsamplingAnswerer,
)
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload


@pytest.fixture
def data():
    return np.random.default_rng(0).integers(0, 2, size=50)


class TestExactAnswerer:
    def test_exact(self, data):
        answerer = ExactAnswerer(data)
        query = SubsetQuery(np.ones(50, dtype=bool))
        assert answerer.answer(query) == data.sum()
        assert answerer.error_bound == 0.0

    def test_query_counter(self, data):
        answerer = ExactAnswerer(data)
        queries = list(Workload.random(50, 7, rng=1))
        answerer.answer_workload(queries)
        assert answerer.queries_answered == 7

    def test_size_mismatch_rejected(self, data):
        answerer = ExactAnswerer(data)
        with pytest.raises(ValueError):
            answerer.answer(SubsetQuery(np.ones(10, dtype=bool)))

    def test_non_binary_data_rejected(self):
        with pytest.raises(ValueError):
            ExactAnswerer(np.array([0, 1, 2]))


class TestBoundedNoise:
    def test_error_within_alpha(self, data):
        answerer = BoundedNoiseAnswerer(data, alpha=3.0, rng=0)
        for query in list(Workload.random(50, 30, rng=1)):
            answer = answerer.answer(query)
            assert abs(answer - query.true_answer(data)) <= 3.0 + 1e-12

    def test_zero_alpha_is_exact(self, data):
        answerer = BoundedNoiseAnswerer(data, alpha=0.0, rng=0)
        query = SubsetQuery(np.ones(50, dtype=bool))
        assert answerer.answer(query) == data.sum()

    def test_extremes_shape(self, data):
        answerer = BoundedNoiseAnswerer(data, alpha=2.0, shape="extremes", rng=0)
        query = SubsetQuery(np.ones(50, dtype=bool))
        deviations = {abs(answerer.answer(query) - data.sum()) for _ in range(20)}
        assert deviations == {2.0}

    def test_negative_alpha_rejected(self, data):
        with pytest.raises(ValueError):
            BoundedNoiseAnswerer(data, alpha=-1.0)

    def test_unknown_shape_rejected(self, data):
        with pytest.raises(ValueError):
            BoundedNoiseAnswerer(data, alpha=1.0, shape="weird")


class TestRounding:
    def test_rounds_to_grid(self, data):
        answerer = RoundingAnswerer(data, step=5)
        for query in list(Workload.random(50, 10, rng=2)):
            assert answerer.answer(query) % 5 == 0

    def test_error_bound_is_half_step(self, data):
        answerer = RoundingAnswerer(data, step=5)
        assert answerer.error_bound == 2.5
        for query in list(Workload.random(50, 20, rng=3)):
            answer = answerer.answer(query)
            assert abs(answer - query.true_answer(data)) <= 2.5

    def test_invalid_step(self, data):
        with pytest.raises(ValueError):
            RoundingAnswerer(data, step=0)


class TestSubsampling:
    def test_unbiased_scale(self, data):
        answerer = SubsamplingAnswerer(data, rate=0.5, rng=4)
        query = SubsetQuery(np.ones(50, dtype=bool))
        answer = answerer.answer(query)
        # Scaled answer should be in a plausible range around the truth.
        assert 0 <= answer <= 2 * 50

    def test_rate_one_is_exact(self, data):
        answerer = SubsamplingAnswerer(data, rate=1.0, rng=5)
        query = SubsetQuery(np.ones(50, dtype=bool))
        assert answerer.answer(query) == pytest.approx(float(data.sum()))

    def test_invalid_rate(self, data):
        with pytest.raises(ValueError):
            SubsamplingAnswerer(data, rate=0.0)
        with pytest.raises(ValueError):
            SubsamplingAnswerer(data, rate=1.5)


class TestLaplaceAnswerer:
    def test_unbounded_error_declared(self, data):
        answerer = LaplaceAnswerer(data, epsilon_per_query=1.0, rng=6)
        assert answerer.error_bound == float("inf")

    def test_epsilon_accounting(self, data):
        answerer = LaplaceAnswerer(data, epsilon_per_query=0.5, rng=7)
        answerer.answer_workload(list(Workload.random(50, 4, rng=8)))
        assert answerer.epsilon_spent == pytest.approx(2.0)

    def test_noise_is_centered(self, data):
        answerer = LaplaceAnswerer(data, epsilon_per_query=1.0, rng=9)
        query = SubsetQuery(np.ones(50, dtype=bool))
        answers = [answerer.answer(query) for _ in range(3_000)]
        assert np.mean(answers) == pytest.approx(float(data.sum()), abs=0.2)

    def test_invalid_epsilon(self, data):
        with pytest.raises(ValueError):
            LaplaceAnswerer(data, epsilon_per_query=0.0)
        with pytest.raises(ValueError):
            LaplaceAnswerer(data, epsilon_per_query=float("nan"))
