"""Tests for LP-decoding reconstruction."""

import numpy as np
import pytest

from repro.queries.mechanism import BoundedNoiseAnswerer, ExactAnswerer, LaplaceAnswerer
from repro.queries.workload import Workload
from repro.reconstruction.dinur_nissim import (
    consistent_candidates,
    exhaustive_reconstruction,
)
from repro.reconstruction.l2_decode import l2_decode, l2_decode_batch
from repro.reconstruction.lp_decode import reconstruct_from_answers
from repro.service.audit import ReconstructionAuditor
from repro.utils.rng import derive_rng


def _attack(answerer, workload):
    """Answer ``workload`` and LP-decode the transcript at the stated error bound."""
    answers = answerer.answer_workload(workload)
    return reconstruct_from_answers(workload, answers, alpha=answerer.error_bound)


class TestLpReconstruction:
    def test_exact_answers_near_perfect(self):
        data = np.random.default_rng(0).integers(0, 2, size=64)
        result = _attack(ExactAnswerer(data), Workload.random(64, 8 * 64, rng=1))
        assert result.agreement_with(data) >= 0.98
        assert result.mode == "feasibility"

    def test_sqrt_n_noise_blatant_nonprivacy(self):
        rng = np.random.default_rng(2)
        n = 128
        data = rng.integers(0, 2, size=n)
        answerer = BoundedNoiseAnswerer(data, alpha=0.5 * np.sqrt(n), rng=rng)
        result = _attack(answerer, Workload.random(n, 8 * n, rng=3))
        assert result.agreement_with(data) >= 0.95  # the paper's 95% bar

    def test_linear_noise_defends(self):
        rng = np.random.default_rng(4)
        n = 128
        data = rng.integers(0, 2, size=n)
        answerer = BoundedNoiseAnswerer(data, alpha=n / 2.0, rng=rng)
        result = _attack(answerer, Workload.random(n, 8 * n, rng=5))
        assert result.agreement_with(data) <= 0.85

    def test_query_budget_saturates_by_8n(self):
        # The query-count axis of the Fundamental Law at fixed sqrt(n) noise:
        # m = 8n queries (the experiments' default budget) reconstruct, m = n
        # falls short.  Data, workload and noise come off one stream per
        # (ratio, repeat), in that order.
        n, repeats = 128, 3
        alpha = 0.5 * float(np.sqrt(n))

        def mean_agreement(ratio):
            agreements = []
            for repeat in range(repeats):
                rng = derive_rng(0, "ablation-m", ratio, repeat)
                data = rng.integers(0, 2, size=n)
                workload = Workload.random(n, ratio * n, rng=rng)
                answers = BoundedNoiseAnswerer(data, alpha=alpha, rng=rng).answer_workload(
                    workload
                )
                result = reconstruct_from_answers(workload, answers, alpha=alpha)
                agreements.append(result.agreement_with(data))
            return float(np.mean(agreements))

        saturated = mean_agreement(8)
        assert saturated >= 0.95
        assert mean_agreement(1) < saturated

    def test_laplace_auto_selects_least_l1(self):
        data = np.random.default_rng(6).integers(0, 2, size=32)
        answerer = LaplaceAnswerer(data, epsilon_per_query=0.5, rng=7)
        result = _attack(answerer, Workload.random(32, 128, rng=8))
        assert result.mode == "least-l1"
        assert np.isnan(result.alpha)

    def test_explicit_mode(self):
        # An infinite alpha selects least-l1 even against exact answers.
        data = np.random.default_rng(9).integers(0, 2, size=32)
        workload = Workload.random(32, 160, rng=10)
        answers = ExactAnswerer(data).answer_workload(workload)
        result = reconstruct_from_answers(workload, answers, alpha=np.inf)
        assert result.mode == "least-l1"
        assert np.isnan(result.alpha)
        assert result.agreement_with(data) >= 0.95

    def test_fractional_solution_in_unit_cube(self):
        data = np.random.default_rng(11).integers(0, 2, size=32)
        result = _attack(ExactAnswerer(data), Workload.random(32, 8 * 32, rng=12))
        assert (result.fractional >= 0).all() and (result.fractional <= 1).all()

    def test_hamming_distance(self):
        data = np.random.default_rng(13).integers(0, 2, size=32)
        result = _attack(ExactAnswerer(data), Workload.random(32, 8 * 32, rng=14))
        assert result.hamming_distance(data) == int(
            round((1 - result.agreement_with(data)) * 32)
        )


class TestReconstructFromAnswers:
    def test_replayed_transcript(self):
        rng = np.random.default_rng(15)
        n = 48
        data = rng.integers(0, 2, size=n)
        queries = list(Workload.random(n, 8 * n, rng=rng))
        answerer = ExactAnswerer(data)
        answers = answerer.answer_workload(queries)
        result = reconstruct_from_answers(queries, answers, alpha=0.0)
        assert result.agreement_with(data) >= 0.98

    def test_answers_alignment_checked(self):
        queries = list(Workload.random(10, 5, rng=0))
        with pytest.raises(ValueError):
            reconstruct_from_answers(queries, np.zeros(4))

    def test_no_alpha_uses_least_l1(self):
        rng = np.random.default_rng(16)
        n = 32
        data = rng.integers(0, 2, size=n)
        queries = list(Workload.random(n, 6 * n, rng=rng))
        answers = ExactAnswerer(data).answer_workload(queries)
        result = reconstruct_from_answers(queries, answers)
        assert result.mode == "least-l1"

    def test_accepts_workload_directly(self):
        rng = np.random.default_rng(17)
        n = 40
        data = rng.integers(0, 2, size=n)
        workload = Workload.random(n, 8 * n, rng=rng)
        answers = ExactAnswerer(data).answer_workload(workload)
        result = reconstruct_from_answers(workload, answers, alpha=0.0)
        assert result.agreement_with(data) >= 0.98
        assert result.queries_used == 8 * n


class TestSparsePath:
    def test_sparse_density_large_n(self):
        # Low-density workloads keep the CSR constraint matrix genuinely
        # sparse; the attack still reconstructs in its noise regime.
        rng = np.random.default_rng(19)
        n = 256
        density = 32.0 / n
        data = rng.integers(0, 2, size=n)
        answerer = BoundedNoiseAnswerer(data, alpha=2.0, rng=rng)
        result = _attack(answerer, Workload.random(n, 8 * n, density=density, rng=20))
        assert result.agreement_with(data) >= 0.9


class TestWarmStart:
    def _transcript(self, n=48, seed=30):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, size=n)
        workload = Workload.random(n, 8 * n, rng=rng)
        answers = ExactAnswerer(data).answer_workload(workload).astype(float)
        return workload, data, answers

    def test_feasible_warm_start_is_the_certificate(self):
        # A warm start that already meets every constraint is itself a
        # solution of the zero-objective feasibility LP — it must come back
        # verbatim, without a solve.
        workload, data, answers = self._transcript()
        start = data.astype(float)
        result = reconstruct_from_answers(
            workload, answers, alpha=0.5, warm_start=start
        )
        assert np.array_equal(result.fractional, start)
        assert result.agreement_with(data) == 1.0

    def test_warm_start_clipped_to_the_box(self):
        # Out-of-box coordinates are clipped before the certificate check;
        # the clipped point here equals the truth, so it certifies.
        workload, data, answers = self._transcript(seed=31)
        start = data.astype(float) * 2.0 - 0.5  # -0.5 / 1.5 -> clips to 0 / 1
        result = reconstruct_from_answers(
            workload, answers, alpha=0.5, warm_start=start
        )
        assert np.array_equal(result.fractional, data.astype(float))

    def test_infeasible_warm_start_falls_through_to_the_solver(self):
        workload, data, answers = self._transcript(seed=32)
        wrong = 1.0 - data.astype(float)
        result = reconstruct_from_answers(
            workload, answers, alpha=0.0, warm_start=wrong
        )
        cold = reconstruct_from_answers(workload, answers, alpha=0.0)
        assert np.array_equal(result.reconstruction, cold.reconstruction)
        assert result.agreement_with(data) >= 0.98

    def test_least_l1_ignores_warm_start(self):
        # Without a finite alpha there is no certificate to check; the
        # least-l1 solve is warm-start-free and bitwise unaffected.
        workload, data, answers = self._transcript(seed=33)
        with_start = reconstruct_from_answers(
            workload, answers, warm_start=data.astype(float)
        )
        without = reconstruct_from_answers(workload, answers)
        assert np.array_equal(with_start.fractional, without.fractional)
        assert with_start.mode == "least-l1"

    def test_warm_start_shape_checked(self):
        workload, _, answers = self._transcript(seed=34)
        with pytest.raises(ValueError, match="warm_start"):
            reconstruct_from_answers(
                workload, answers, alpha=0.5, warm_start=np.zeros(3)
            )

    @pytest.mark.parametrize("alpha", [None, float("inf")])
    def test_least_l1_checks_the_warm_start_shape(self, alpha):
        # Least-l1 never reads the warm start, but a wrong-shaped one is
        # refused with the feasibility mode's message all the same.
        workload, _, answers = self._transcript(n=16, seed=35)
        with pytest.raises(ValueError, match=r"warm_start has shape \(7,\), expected \(16,\)"):
            reconstruct_from_answers(workload, answers, alpha=alpha, warm_start=np.zeros(7))


class TestInfeasibleFeasibility:
    """An LP with no solution at the stated alpha is reported as least-l1."""

    N, M, ALPHA = 32, 96, 0.5

    def _answerer(self, seed):
        # Every answer is off by exactly 3, far past the stated alpha.
        data = derive_rng(seed, "lp-infeasible-data").integers(0, 2, size=self.N)
        rng = derive_rng(seed, "lp-infeasible-noise")
        return BoundedNoiseAnswerer(data, alpha=3.0, shape="extremes", rng=rng)

    def _assert_least_l1(self, result, workload, answers):
        assert result.mode == "least-l1"
        assert np.isnan(result.alpha)
        residual = workload.matrix(sparse=True) @ result.fractional - answers
        assert np.max(np.abs(residual)) > self.ALPHA
        least_l1 = reconstruct_from_answers(workload, answers)
        assert np.array_equal(result.fractional, least_l1.fractional)

    def test_reconstruct_from_answers_reports_the_fallback(self):
        workload = Workload.random(self.N, self.M, rng=40)
        answers = self._answerer(seed=0).answer_workload(workload)
        result = reconstruct_from_answers(workload, answers, alpha=self.ALPHA)
        self._assert_least_l1(result, workload, answers)

    def test_feasible_alpha_still_reports_feasibility(self):
        workload = Workload.random(self.N, self.M, rng=42)
        answers = self._answerer(seed=2).answer_workload(workload)
        result = reconstruct_from_answers(workload, answers, alpha=3.0)
        assert result.mode == "feasibility"
        assert result.alpha == 3.0
        residual = workload.matrix(sparse=True) @ result.fractional - answers
        assert np.max(np.abs(residual)) <= 3.0 + 1e-6


@pytest.mark.parametrize(
    "decode",
    [
        lambda w, a: reconstruct_from_answers(w, a, alpha=-0.5),
        lambda w, a: l2_decode(w, a, alpha=-0.5),
        lambda w, a: l2_decode_batch(w.matrix()[None], a[None], alpha=-0.5),
        lambda w, a: ReconstructionAuditor(np.zeros(w.n, dtype=int), alpha=-0.5),
        lambda w, a: exhaustive_reconstruction(
            ExactAnswerer(np.zeros(w.n, dtype=int)), alpha=-0.5
        ),
        lambda w, a: consistent_candidates(
            ExactAnswerer(np.zeros(w.n, dtype=int)), alpha=-0.5
        ),
    ],
    ids=[
        "reconstruct_from_answers",
        "l2_decode",
        "l2_decode_batch",
        "ReconstructionAuditor",
        "exhaustive_reconstruction",
        "consistent_candidates",
    ],
)
def test_negative_alpha_rejected(decode):
    workload = Workload.random(8, 24, rng=37)
    with pytest.raises(ValueError, match="alpha must be non-negative"):
        decode(workload, np.zeros(24))
