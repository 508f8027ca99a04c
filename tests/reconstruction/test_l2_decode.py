"""The first-order l2 decoder: agreement with the LP, certificates, determinism."""

import importlib
import time

import numpy as np
import pytest

from repro.queries.mechanism import BoundedNoiseAnswerer, ExactAnswerer
from repro.queries.workload import Workload
from repro.reconstruction.l2_decode import (
    GRAM_MAX_N,
    L2ReconstructionResult,
    _lipschitz_bound,
    _prefers_gram,
    l2_decode,
    l2_decode_batch,
)
from repro.reconstruction.lp_decode import reconstruct_from_answers
from repro.utils.rng import derive_rng

# The module itself: the package re-exports the function under its name.
l2_module = importlib.import_module("repro.reconstruction.l2_decode")


def _transcript(n, m, seed, alpha=0.0, density=0.5):
    rng = derive_rng(seed, "l2-test", n)
    data = rng.integers(0, 2, size=n)
    workload = Workload.random(n, m, density=density, rng=rng)
    if alpha:
        answers = BoundedNoiseAnswerer(data, alpha=alpha, rng=rng).answer_workload(
            workload
        )
    else:
        answers = ExactAnswerer(data).answer_workload(workload)
    return workload, data, answers.astype(float)


class TestL2Decode:
    def test_exact_answers_recovered(self):
        workload, data, answers = _transcript(64, 512, seed=0)
        result = l2_decode(workload, answers, alpha=0.5)
        assert result.agreement_with(data) == 1.0
        assert result.certified
        assert result.max_residual <= 0.5

    def test_bounded_noise_recovered(self):
        workload, data, answers = _transcript(128, 1024, seed=1, alpha=2.0)
        result = l2_decode(workload, answers, alpha=2.0)
        assert result.agreement_with(data) >= 0.95

    def test_agrees_with_lp_in_the_sparse_regime(self):
        # The KRS claim: the projection decodes wherever the LP decodes.
        n = 256
        workload, data, answers = _transcript(
            n, 8 * n, seed=2, alpha=2.0, density=32.0 / n
        )
        l2 = l2_decode(workload, answers, alpha=2.0)
        lp = reconstruct_from_answers(workload, answers, alpha=2.0)
        assert l2.agreement_with(data) >= 0.95
        assert lp.agreement_with(data) >= 0.95
        # Both decoders agree with each other at least as well as either
        # agrees with the truth.
        both = float((l2.reconstruction == lp.reconstruction).mean())
        assert both >= 0.95

    def test_10x_faster_than_the_lp_at_full_agreement(self):
        # The classical regime at n = 256 (m = 8n, density 1/2, noise
        # 0.5 * sqrt(n/2)): both decoders recover every bit, and the
        # projection does it at least 10x faster than the LP.  The ratio
        # grows with n, so the smallest size is the strictest.
        n = 256
        workload = Workload.random(n, 8 * n, rng=derive_rng(0, "bench-w", n))
        data = derive_rng(0, "bench-data", n).integers(0, 2, size=n)
        alpha = 0.5 * float(np.sqrt(n * 0.5))
        answers = BoundedNoiseAnswerer(
            data, alpha=alpha, rng=derive_rng(0, "bench-a", n)
        ).answer_workload(workload)

        start = time.perf_counter()
        lp = reconstruct_from_answers(workload, answers, alpha=alpha)
        lp_seconds = time.perf_counter() - start
        start = time.perf_counter()
        l2 = l2_decode(workload, answers, alpha)
        l2_seconds = time.perf_counter() - start

        assert lp.agreement_with(data) == 1.0
        assert l2.agreement_with(data) == 1.0
        assert lp_seconds >= 10.0 * l2_seconds, (lp_seconds, l2_seconds)

    def test_certificate_is_the_feasibility_condition(self):
        workload, data, answers = _transcript(32, 256, seed=3)
        result = l2_decode(workload, answers, alpha=0.25)
        matrix = workload.matrix(sparse=True)
        residual = np.max(
            np.abs(matrix @ result.reconstruction.astype(float) - answers)
        )
        assert result.max_residual == pytest.approx(float(residual))
        assert result.certified == (residual <= 0.25)

    def test_no_alpha_means_nothing_to_certify(self):
        workload, _, answers = _transcript(32, 256, seed=4)
        result = l2_decode(workload, answers)
        assert not result.certified
        assert np.isnan(result.alpha)

    def test_validation(self):
        workload, _, answers = _transcript(16, 64, seed=7)
        with pytest.raises(ValueError):
            l2_decode(workload, answers[:-1])

    def test_result_bookkeeping(self):
        workload, data, answers = _transcript(48, 384, seed=8)
        result = l2_decode(workload, answers, alpha=0.5)
        assert isinstance(result, L2ReconstructionResult)
        assert result.queries_used == 384
        assert result.iterations >= 1
        assert result.hamming_distance(data) == 0


def _csr_fista(workload, answers, alpha=None, max_iters=2000, tol=1e-6):
    """Reference FISTA with the gradient as two CSR matvecs, A^T (A y - a)."""
    matrix = workload.matrix(sparse=True)
    step = 1.0 / _lipschitz_bound(matrix)
    bound = np.inf if alpha is None else alpha
    z = np.full(matrix.shape[1], 0.5)
    y, t, iterations = z.copy(), 1.0, 0
    for iterations in range(1, max_iters + 1):
        z_next = np.clip(y - step * (matrix.T @ (matrix @ y - answers)), 0.0, 1.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = z_next + ((t - 1.0) / t_next) * (z_next - z)
        shift = float(np.max(np.abs(z_next - z)))
        z, t = z_next, t_next
        if np.isfinite(bound) and iterations % 25 == 0:
            rounded = (z >= 0.5).astype(np.float64)
            if np.max(np.abs(matrix @ rounded - answers)) <= bound:
                break
        if shift < tol:
            break
    return z, iterations


class TestGramForm:
    """The ``G y - A^T a`` gradient follows the CSR iteration step for step."""

    @staticmethod
    def _noisy(n, m, seed, density=0.5):
        rng = derive_rng(seed, "gram", n, m)
        data = rng.integers(0, 2, size=n)
        workload = Workload.random(n, m, density=density, rng=rng)
        answers = workload.matrix(sparse=True) @ data + rng.laplace(0.0, 4.0, m)
        return workload, answers

    @pytest.mark.parametrize(
        "n, m, density, gram",
        [
            (128, 256, 0.5, True),  # tall, fill ~1: an audit transcript, scaled down
            (96, 64, 0.5, True),  # wide, fill ~0.33
            (128, 32, 0.5, False),  # fill ~0.125
            (512, 2048, 16 / 512, False),  # sparse, fill ~0.125
            (GRAM_MAX_N + 8, 256, 0.9, False),  # fill ~0.36, but n too large
        ],
    )
    def test_matches_csr_iteration(self, n, m, density, gram, monkeypatch):
        workload, answers = self._noisy(n, m, seed=n + m, density=density)
        assert _prefers_gram(workload.matrix(sparse=True)) is gram
        max_iters = 300 if n > GRAM_MAX_N else 2000
        monkeypatch.setattr(l2_module, "MAX_ITERS", max_iters)
        result = l2_decode(workload, answers)
        fractional, iterations = _csr_fista(workload, answers, max_iters=max_iters)
        assert result.iterations == iterations
        np.testing.assert_array_equal(result.reconstruction, fractional >= 0.5)
        np.testing.assert_allclose(result.fractional, fractional, rtol=0, atol=1e-9)

    def test_certificate_exit_matches(self):
        # The compliance verifier's mode: l2_decode(workload, answers, 0.5)
        # on exact answers, exiting at the first certifying check.
        rng = derive_rng(0, "gram-certificate")
        data = rng.integers(0, 2, size=96)
        workload = Workload.random(96, 192, rng=rng)
        answers = ExactAnswerer(data).answer_workload(workload).astype(float)
        assert _prefers_gram(workload.matrix(sparse=True))
        result = l2_decode(workload, answers, 0.5)
        fractional, iterations = _csr_fista(workload, answers, alpha=0.5)
        assert result.certified
        assert 0 < result.iterations < 2000
        assert result.iterations == iterations
        np.testing.assert_array_equal(result.reconstruction, data)
        np.testing.assert_allclose(result.fractional, fractional, rtol=0, atol=1e-9)


def _einsum_fista(systems, answers, alpha=None, *, max_iters=2000, tol=1e-6):
    """Reference batched FISTA with the gradient as two einsums, A^T (A y - a).

    Returns ``(bits, fractional, residuals, stopped)``, where ``stopped``
    is the iteration at which each block left the active set.
    """
    k, m, b = systems.shape
    bound = np.inf if alpha is None else alpha
    row_sums = systems.sum(axis=2).max(axis=1)
    col_sums = systems.sum(axis=1).max(axis=1)
    steps = 1.0 / np.maximum(row_sums * col_sums, 1e-12)
    fractional = np.full((k, b), 0.5)
    stopped = np.zeros(k, dtype=np.int64)
    active = np.arange(k)
    z = fractional.copy()
    y = z.copy()
    a_mats, a_vecs, step, t = systems, answers, steps[:, None], 1.0
    for iteration in range(1, max_iters + 1):
        residual = np.einsum("kmb,kb->km", a_mats, y) - a_vecs
        gradient = np.einsum("kmb,km->kb", a_mats, residual)
        z_next = np.clip(y - step * gradient, 0.0, 1.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = z_next + ((t - 1.0) / t_next) * (z_next - z)
        shifts = np.abs(z_next - z).max(axis=1)
        z, t = z_next, t_next
        done = shifts < tol
        if np.isfinite(bound) and iteration % 25 == 0:
            rounded = (z >= 0.5).astype(np.float64)
            cert = np.abs(np.einsum("kmb,kb->km", a_mats, rounded) - a_vecs).max(axis=1)
            done |= cert <= bound
        if done.any() or iteration == max_iters:
            finished = done if iteration < max_iters else np.ones_like(done)
            fractional[active[finished]] = z[finished]
            stopped[active[finished]] = iteration
            keep = ~finished
            if not keep.any():
                break
            active = active[keep]
            z, y = z[keep], y[keep]
            a_mats, a_vecs, step = a_mats[keep], a_vecs[keep], step[keep]
    bits = (fractional >= 0.5).astype(np.int64)
    residuals = np.abs(
        np.einsum("kmb,kb->km", systems, bits.astype(np.float64)) - answers
    ).max(axis=1)
    return bits, fractional, residuals, stopped


def _stack(k, m, b, seed, noise=0):
    """``k`` random 0/1 systems of shape (m, b), their bits and answers.

    ``noise`` bounds a uniform integer error added to every answer.
    """
    rng = derive_rng(seed, "l2-batch")
    systems = (rng.random((k, m, b)) < 0.5).astype(float)
    # Re-draw all-zero rows so every query is informative.
    empty = ~systems.any(axis=2)
    while empty.any():
        systems[empty] = (rng.random((int(empty.sum()), b)) < 0.5).astype(float)
        empty = ~systems.any(axis=2)
    data = rng.integers(0, 2, size=(k, b))
    answers = np.einsum("kmb,kb->km", systems, data.astype(float))
    if noise:
        answers += rng.integers(-noise, noise + 1, size=(k, m))
    return systems, data, answers


class TestL2DecodeBatch:
    def test_exact_batch_recovered(self):
        systems, data, answers = _stack(20, 64, 16, seed=0)
        bits, fractional, residuals = l2_decode_batch(systems, answers, alpha=0.5)
        assert np.array_equal(bits, data)
        assert (residuals <= 0.5).all()
        assert fractional.shape == bits.shape

    def test_batch_matches_single_block_decode(self):
        # Each block's trajectory must be independent of its batch-mates:
        # decoding a block alone, or in a sub-batch, gives the same bits,
        # iterate and residual as decoding it in a stack of 20.  The second
        # case has the census shape and noise, where a few blocks run on
        # long after their batch-mates have certified.
        for m, b, seed, noise, alpha in ((64, 16, 1, 0, 0.5), (96, 32, 3, 1, 1.0)):
            systems, _, answers = _stack(20, m, b, seed=seed, noise=noise)
            bits, fractional, residuals = l2_decode_batch(systems, answers, alpha=alpha)
            for lo, hi in ((3, 4), (5, 12)):
                sub = l2_decode_batch(systems[lo:hi], answers[lo:hi], alpha=alpha)
                np.testing.assert_array_equal(sub[0], bits[lo:hi])
                np.testing.assert_array_equal(sub[1], fractional[lo:hi])
                np.testing.assert_array_equal(sub[2], residuals[lo:hi])

    def test_validation(self):
        systems, _, answers = _stack(2, 8, 4, seed=2)
        with pytest.raises(ValueError):
            l2_decode_batch(systems[0], answers)
        with pytest.raises(ValueError):
            l2_decode_batch(systems, answers[:, :-1])


class TestBatchGramForm:
    """``G y - A^T a`` follows the einsum iteration block by block."""

    @pytest.mark.parametrize(
        "k, m, b, noise, alpha, options, exits",
        [
            # Exact answers: every block stops at a certificate check.
            (16, 64, 16, 0, 0.5, {}, "certificate"),
            # No alpha, nothing to certify: every block runs to the tol exit.
            (12, 96, 32, 0, None, {}, "tol"),
            # A tight cap stops every block before either exit.
            (10, 96, 32, 1, 1.0, {"max_iters": 20}, "max_iters"),
            # The census shape: most blocks certify, a few run to tol.
            (64, 96, 32, 1, 1.0, {}, "mixed"),
            # One block alone.
            (1, 96, 32, 1, 1.0, {}, None),
            (1, 48, 16, 0, None, {"tol": 1e-8}, "tol"),
        ],
    )
    def test_matches_einsum_iteration(
        self, k, m, b, noise, alpha, options, exits, monkeypatch
    ):
        # The decoder's MAX_ITERS and TOL are set to the reference's.
        monkeypatch.setattr(l2_module, "MAX_ITERS", options.get("max_iters", 2000))
        monkeypatch.setattr(l2_module, "TOL", options.get("tol", 1e-6))
        systems, _, answers = _stack(k, m, b, seed=k + m + b + noise, noise=noise)
        bits, fractional, residuals = l2_decode_batch(systems, answers, alpha)
        ref_bits, ref_fractional, ref_residuals, stopped = _einsum_fista(
            systems, answers, alpha, **options
        )
        np.testing.assert_array_equal(bits, ref_bits)
        np.testing.assert_allclose(fractional, ref_fractional, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(residuals, ref_residuals)

        cap = options.get("max_iters", 2000)
        certified = (stopped % 25 == 0) & (ref_residuals <= (alpha or -1.0))
        if exits == "certificate":
            assert certified.all() and (stopped < cap).all()
        elif exits == "tol":
            assert not certified.any() and (stopped < cap).all()
        elif exits == "max_iters":
            assert (stopped == cap).all()
        elif exits == "mixed":
            assert certified.any() and not certified.all()
            assert (stopped < cap).all()


class TestWarmStart:
    def test_x0_shape_validated(self):
        workload, _, answers = _transcript(32, 64, seed=3)
        with pytest.raises(ValueError, match="x0"):
            l2_decode(workload, answers, x0=np.zeros(7))

    def test_x0_is_clipped_into_the_box(self):
        workload, data, answers = _transcript(32, 64, seed=3)
        wild = np.where(data > 0, 5.0, -5.0)  # right signs, out of the box
        result = l2_decode(workload, answers, alpha=0.0, x0=wild)
        assert result.fractional.min() >= 0.0 and result.fractional.max() <= 1.0
        assert result.agreement_with(data) == 1.0

    def test_certifying_warm_start_skips_iteration(self):
        workload, data, answers = _transcript(48, 96, seed=5)
        result = l2_decode(workload, answers, alpha=0.0, x0=data.astype(float))
        assert result.iterations == 0
        assert result.certified
        np.testing.assert_array_equal(result.reconstruction, data)

    def test_warm_start_converges_faster_than_cold(self):
        workload, data, answers = _transcript(96, 192, seed=7)
        cold = l2_decode(workload, answers)
        # Perturb the cold solution slightly: the warm restart must converge
        # in fewer iterations and to the same rounded reconstruction.
        nudged = np.clip(cold.fractional + 0.01, 0.0, 1.0)
        warm = l2_decode(workload, answers, x0=nudged)
        assert warm.iterations < cold.iterations
        np.testing.assert_array_equal(warm.reconstruction, cold.reconstruction)

    def test_default_is_cold_center_start(self):
        workload, _, answers = _transcript(32, 64, seed=9)
        explicit = l2_decode(workload, answers, x0=np.full(32, 0.5))
        default = l2_decode(workload, answers)
        np.testing.assert_array_equal(explicit.fractional, default.fractional)
        assert explicit.iterations == default.iterations
