"""Bit-identity of the batched answering path against the per-query loop.

The contract under test: for any answerer with any fixed seed,
``answer_workload`` returns *exactly* the answers the per-query ``answer``
loop would return from the same RNG state — same floating-point bits, any
batch split — and the ``queries_answered`` counter advances by ``m``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.mechanism import (
    BoundedNoiseAnswerer,
    ExactAnswerer,
    GaussianAnswerer,
    LaplaceAnswerer,
    RoundingAnswerer,
    SubsamplingAnswerer,
)
from repro.queries.workload import Workload
from repro.utils.rng import derive_rng


def _make_data(n: int, seed: int = 17) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=n)


#: (name, factory) for every answerer class; factories take (data, seed) so
#: each path of a comparison can rebuild an identically seeded instance.
ANSWERER_FACTORIES = [
    ("exact", lambda data, seed: ExactAnswerer(data)),
    (
        "bounded-uniform",
        lambda data, seed: BoundedNoiseAnswerer(
            data, alpha=3.0, shape="uniform", rng=derive_rng(seed, "u")
        ),
    ),
    (
        "bounded-extremes",
        lambda data, seed: BoundedNoiseAnswerer(
            data, alpha=2.0, shape="extremes", rng=derive_rng(seed, "x")
        ),
    ),
    (
        "bounded-zero-alpha",
        lambda data, seed: BoundedNoiseAnswerer(
            data, alpha=0.0, rng=derive_rng(seed, "z")
        ),
    ),
    ("rounding", lambda data, seed: RoundingAnswerer(data, step=3)),
    (
        "subsampling",
        lambda data, seed: SubsamplingAnswerer(
            data, rate=0.5, rng=derive_rng(seed, "s")
        ),
    ),
    (
        "laplace",
        lambda data, seed: LaplaceAnswerer(
            data, epsilon_per_query=0.7, rng=derive_rng(seed, "l")
        ),
    ),
    (
        "gaussian",
        lambda data, seed: GaussianAnswerer(
            data, epsilon_per_query=0.9, delta_per_query=1e-5, rng=derive_rng(seed, "g")
        ),
    ),
]

FACTORY_IDS = [name for name, _factory in ANSWERER_FACTORIES]
FACTORIES = [factory for _name, factory in ANSWERER_FACTORIES]


@pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
class TestBitIdentity:
    def test_workload_matches_per_query_loop(self, factory):
        n, m = 40, 97
        data = _make_data(n)
        workload = Workload.random(n, m, rng=derive_rng(0, "w"))

        loop_answerer = factory(data, 123)
        loop_answers = np.array([loop_answerer.answer(q) for q in workload])

        batch_answerer = factory(data, 123)
        batch_answers = batch_answerer.answer_workload(workload)

        assert batch_answers.shape == (m,)
        assert np.array_equal(loop_answers, batch_answers)  # bitwise, no tolerance

    def test_chunked_answering_matches_one_shot(self, factory):
        # Any batch split consumes the RNG stream in query order, so chunked
        # answering over workload slices equals the one-shot call bitwise.
        n, m, chunk = 24, 131, 37
        data = _make_data(n)
        workload = Workload.random(n, m, rng=derive_rng(1, "w"))

        one_shot = factory(data, 5).answer_workload(workload)

        chunked_answerer = factory(data, 5)
        masks = workload.masks
        chunks = [
            chunked_answerer.answer_workload(Workload(masks[start : start + chunk]))
            for start in range(0, m, chunk)
        ]
        assert np.array_equal(np.concatenate(chunks), one_shot)

    def test_counter_advances_by_m(self, factory):
        n, m = 16, 29
        data = _make_data(n)
        workload = Workload.random(n, m, rng=derive_rng(2, "w"))
        answerer = factory(data, 9)
        assert answerer.queries_answered == 0
        answerer.answer_workload(workload)
        assert answerer.queries_answered == m
        answerer.answer_workload(workload)
        assert answerer.queries_answered == 2 * m

    def test_query_list_coerced(self, factory):
        # answer_workload accepts a plain list of SubsetQuery objects.
        n = 12
        data = _make_data(n)
        workload = Workload.random(n, 8, rng=derive_rng(3, "w"))
        from_list = factory(data, 4).answer_workload(list(workload))
        from_workload = factory(data, 4).answer_workload(workload)
        assert np.array_equal(from_list, from_workload)

    def test_wrong_n_rejected(self, factory):
        answerer = factory(_make_data(10), 1)
        workload = Workload.random(11, 4, rng=0)
        with pytest.raises(ValueError):
            answerer.answer_workload(workload)


@given(
    n=st.integers(2, 24),
    m=st.integers(1, 60),
    factory_index=st.integers(0, len(FACTORIES) - 1),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_bit_identity_property(n, m, factory_index, seed):
    """Random (n, m, answerer, seed): batched equals the loop, bitwise."""
    factory = FACTORIES[factory_index]
    data = np.random.default_rng(seed).integers(0, 2, size=n)
    workload = Workload.random(n, m, rng=derive_rng(seed, "w"))
    loop_answerer = factory(data, seed)
    loop = np.array([loop_answerer.answer(q) for q in workload])
    batch = factory(data, seed).answer_workload(workload)
    assert np.array_equal(loop, batch)


class TestWorkloadClass:
    def test_masks_read_only(self):
        workload = Workload.random(6, 3, rng=0)
        with pytest.raises(ValueError):
            workload.masks[0, 0] = False

    def test_sparse_matrix_cached(self):
        workload = Workload.random(6, 3, rng=0)
        assert workload.matrix(sparse=True) is workload.matrix(sparse=True)

    def test_matrix_dtypes(self):
        workload = Workload.random(6, 3, rng=0)
        assert workload.matrix().dtype == np.float64
        assert workload.matrix(dtype=bool).dtype == bool
        assert workload.matrix(dtype=np.int64, sparse=True).dtype == np.int64

    def test_true_answers_match_per_query(self):
        workload = Workload.random(20, 50, rng=1)
        data = _make_data(20)
        expected = np.array([q.true_answer(data) for q in workload])
        answers = workload.true_answers(data)
        assert answers.dtype == np.int64
        assert np.array_equal(answers, expected)

    def test_true_answers_validates_by_default(self):
        workload = Workload.random(4, 2, rng=0)
        with pytest.raises(ValueError):
            workload.true_answers(np.array([0, 1, 2, 0]))

    def test_from_queries_roundtrip(self):
        workload = Workload.random(9, 7, rng=2)
        rebuilt = Workload.from_queries(list(workload))
        assert np.array_equal(workload.masks, rebuilt.masks)

    def test_coerce_passthrough(self):
        workload = Workload.random(5, 4, rng=3)
        assert Workload.coerce(workload) is workload

    def test_random_has_no_empty_queries(self):
        workload = Workload.random(3, 200, density=0.05, rng=4)
        assert workload.masks.any(axis=1).all()

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            Workload(np.zeros((0, 4), dtype=bool))
        with pytest.raises(ValueError):
            Workload(np.zeros((4, 0), dtype=bool))
        with pytest.raises(ValueError):
            Workload(np.zeros(4, dtype=bool))
