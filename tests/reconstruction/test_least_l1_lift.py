"""The equality-form least-l1 lift against the inequality lift it replaced."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.reconstruction.lp_decode import solve_least_l1


def _inequality_lift(matrix, targets, lower, upper):
    """The former lift: variables (z, t), ``-t <= A z - a <= t``, minimise sum(t)."""
    m, n = matrix.shape
    identity = scipy.sparse.identity(m, format="csr")
    a_ub = scipy.sparse.bmat(
        [[matrix, -identity], [-matrix, -identity]], format="csr"
    )
    result = linprog(
        c=np.concatenate([np.zeros(n), np.ones(m)]),
        A_ub=a_ub,
        b_ub=np.concatenate([targets, -targets]),
        bounds=[(lower, upper)] * n + [(0.0, None)] * m,
        method="highs-ipm",
        options={"presolve": True},
    )
    assert result.success, result.message
    return result.x[:n]


def _l1(matrix, z, targets):
    return float(np.abs(matrix @ z - targets).sum())


def _assert_same_optimum(matrix, targets, lower, upper):
    z = solve_least_l1(matrix, targets, lower=lower, upper=upper)
    reference = _inequality_lift(scipy.sparse.csr_matrix(matrix), targets, lower, upper)
    assert z.shape == (matrix.shape[1],)
    assert (z >= lower).all()
    if upper is not None:
        assert (z <= upper).all()
    assert _l1(matrix, z, targets) == pytest.approx(
        _l1(matrix, reference, targets), rel=1e-7, abs=1e-7
    )


@st.composite
def _systems(draw):
    """A random 0/1 system with noisy targets, wide (m < n) or tall (m > n)."""
    n = draw(st.integers(2, 24))
    if draw(st.booleans()):
        m = draw(st.integers(n + 1, 2 * n + 8))
    else:
        m = draw(st.integers(1, n - 1))
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = (rng.random((m, n)) < density).astype(np.float64)
    truth = rng.integers(0, 3, size=n).astype(np.float64)
    targets = matrix @ truth + rng.laplace(0.0, draw(st.sampled_from([0.5, 4.0])), m)
    return matrix, targets


@given(system=_systems(), sparse=st.booleans(), upper=st.sampled_from([1.0, None]))
@settings(max_examples=60, deadline=None)
def test_equality_lift_matches_inequality_lift(system, sparse, upper):
    matrix, targets = system
    if sparse:
        matrix = scipy.sparse.csr_matrix(matrix)
    _assert_same_optimum(matrix, targets, 0.0, upper)


@pytest.mark.parametrize("seed", range(4))
def test_hierarchical_fit_shape(seed):
    """The ``upper=None`` caller's system: block cells stacked on their sum."""
    blocks, cells = 5, 6
    rng = np.random.default_rng(seed)
    system = scipy.sparse.vstack(
        [
            scipy.sparse.identity(blocks * cells, format="csr"),
            scipy.sparse.hstack(
                [scipy.sparse.identity(cells, format="csr")] * blocks, format="csr"
            ),
        ],
        format="csr",
    )
    counts = rng.poisson(3.0, size=blocks * cells).astype(np.float64)
    targets = system @ counts + rng.integers(-3, 4, size=system.shape[0])
    _assert_same_optimum(system, targets, 0.0, None)
