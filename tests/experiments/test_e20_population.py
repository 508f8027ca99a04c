"""E20's population builder: chunked, bounded-memory, same draws as before."""

import numpy as np
import pytest
import scipy.sparse

from repro.experiments import e20_sharded_reconstruction as e20
from repro.queries.workload import Workload
from repro.utils.rng import derive_rng


def whole_draw_population(num_blocks, rng, block_size=e20.BLOCK_SIZE):
    """The builder before chunking: one float64 draw and a COO build."""
    b, m = block_size, block_size * e20.QUERIES_PER_BLOCK // e20.BLOCK_SIZE
    masks = rng.random((num_blocks, m, b)) < 0.5
    empty = ~masks.any(axis=2)
    while empty.any():
        masks[empty] = rng.random((int(empty.sum()), b)) < 0.5
        empty = ~masks.any(axis=2)
    block, row, col = np.nonzero(masks)
    matrix = scipy.sparse.csr_matrix(
        (
            np.ones(len(block), dtype=np.float64),
            (block * m + row, block * b + col),
        ),
        shape=(num_blocks * m, num_blocks * b),
    )
    workload = Workload.from_csr(matrix, copy=False)
    data = rng.integers(0, 2, size=num_blocks * b)
    answers = workload.true_answers(data) + rng.integers(-1, 2, size=num_blocks * m)
    return workload, data, answers.astype(float)


@pytest.mark.parametrize(
    "num_blocks, block_size, chunk",
    [
        (7, 1, 3),  # one person per block: half the rows start empty
        (5, 2, 2),
        (9, 16, 4),
        (6, e20.BLOCK_SIZE, 1),
        (4, e20.BLOCK_SIZE, 64),  # one chunk holds every block
    ],
)
def test_chunked_build_equals_the_whole_draw(monkeypatch, num_blocks, block_size, chunk):
    monkeypatch.setattr(e20, "BUILD_CHUNK_BLOCKS", chunk)
    labels = ("e20-population-test", num_blocks, block_size)
    reference = whole_draw_population(num_blocks, derive_rng(0, *labels), block_size)
    built = e20.build_population(num_blocks, derive_rng(0, *labels), block_size)

    expected = reference[0].matrix(sparse=True)
    actual = built[0].matrix(sparse=True)
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(actual, name), getattr(expected, name))
        assert getattr(actual, name).dtype == getattr(expected, name).dtype
    np.testing.assert_array_equal(built[1], reference[1])
    np.testing.assert_array_equal(built[2], reference[2])


def test_tiny_blocks_exercise_the_redraw():
    # The one-person case above is only a redraw test if the first draw
    # leaves rows empty.
    rng = derive_rng(0, "e20-population-test", 7, 1)
    assert (~(rng.random((7, 3, 1)) < 0.5).any(axis=2)).any()
