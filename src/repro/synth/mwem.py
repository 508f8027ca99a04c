"""MWEM: multiplicative weights + exponential mechanism synthesis.

Hardt-Ligett-McSherry's MWEM is the workhorse DP synthetic-data algorithm
and the natural consumer of the PR 2 batched query engine: the workload is
a packed :class:`~repro.queries.workload.Workload` over the cell domain,
so every round scores *all* queries with one sparse matvec.  Per round the
algorithm

1. selects the worst-approximated workload query with the exponential
   mechanism (:class:`repro.dp.exponential.ExponentialMechanism`, half the
   round's budget),
2. measures it with Laplace noise (:class:`repro.privacy.kernels.
   LaplaceKernel` calibrated at the other half), and
3. re-weights the synthetic histogram multiplicatively toward the
   measurement (:func:`multiplicative_update`, fully vectorized).

The released distribution is the average of the per-round histograms (the
standard variant with the provable error bound); records are sampled from
it with one multinomial draw.  Privacy: each round is ``epsilon / rounds``-
DP (half selection, half measurement; counting-query sensitivity 1), so
the whole synthesis is ``epsilon``-DP by basic composition.  The record
count is treated as public, as in the original analysis.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.dp.exponential import ExponentialMechanism
from repro.privacy.accounting import PrivacySpend
from repro.privacy.kernels import LaplaceKernel, MechanismSpec
from repro.queries.workload import Workload
from repro.synth.base import SyntheticRelease, Synthesizer
from repro.synth.domain import CellDomain

__all__ = ["MWEMSynthesizer", "multiplicative_update", "run_mwem", "workload_error"]


def multiplicative_update(
    weights: np.ndarray, mask: np.ndarray, gap: float, total: float
) -> np.ndarray:
    """One MWEM re-weighting step, vectorized.

    Cells inside the measured query's ``mask`` are scaled by
    ``exp(gap / (2 * total))`` (``gap`` = noisy measurement minus current
    estimate), cells outside are untouched, and the histogram is
    renormalized back to ``total``.  ``tests/synth/test_mwem.py`` checks
    this path against an explicit per-cell Python loop, to the last float.
    """
    updated = np.where(
        mask, weights * np.exp(gap / (2.0 * total)), weights
    )
    return updated * (total / updated.sum())


def workload_error(
    workload: Workload, histogram: np.ndarray, synthetic: np.ndarray
) -> float:
    """Mean absolute per-query error between two histograms, per record.

    ``mean(|A h - A s|) / total`` — the scale-free fitting error MWEM's
    guarantee bounds; one sparse matvec per histogram.
    """
    matrix = workload.matrix(sparse=True)
    total = float(np.asarray(histogram, dtype=np.float64).sum())
    if total <= 0:
        raise ValueError("histogram must have positive total")
    gaps = matrix @ np.asarray(histogram, dtype=np.float64) - matrix @ np.asarray(
        synthetic, dtype=np.float64
    )
    return float(np.abs(gaps).mean() / total)


def run_mwem(
    histogram: np.ndarray,
    workload: Workload,
    epsilon: float,
    rounds: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, tuple[float, ...]]:
    """The MWEM core: fit a synthetic histogram to ``histogram``.

    Returns the averaged synthetic histogram (float, same total as the
    input) and the per-round workload-error trace of the running average.
    All noise flows through :class:`LaplaceKernel` and the exponential
    mechanism's selection probabilities; ``rng`` only ever supplies the
    underlying uniform draws.
    """
    histogram = np.asarray(histogram, dtype=np.float64)
    if histogram.ndim != 1:
        raise ValueError("histogram must be one-dimensional")
    if workload.n != histogram.size:
        raise ValueError(
            f"workload addresses n={workload.n} cells, histogram has "
            f"{histogram.size}"
        )
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    total = float(histogram.sum())
    if total <= 0:
        raise ValueError("histogram must contain at least one record")

    per_round = epsilon / rounds
    selector = ExponentialMechanism(per_round / 2.0, score_sensitivity=1.0)
    measure_kernel = LaplaceKernel.calibrate(per_round / 2.0, sensitivity=1.0)

    matrix = workload.matrix(sparse=True)
    true_answers = matrix @ histogram
    weights = np.full(histogram.size, total / histogram.size, dtype=np.float64)
    averaged = np.zeros_like(weights)
    trace: list[float] = []
    for round_index in range(1, rounds + 1):
        estimates = matrix @ weights
        scores = np.abs(true_answers - estimates)
        probabilities = selector.selection_probabilities(scores)
        chosen = int(rng.choice(scores.size, p=probabilities))
        measurement = float(true_answers[chosen]) + measure_kernel.sample(rng)
        weights = multiplicative_update(
            weights,
            workload.masks[chosen],
            measurement - float(estimates[chosen]),
            total,
        )
        averaged += weights
        running = averaged / round_index
        trace.append(float(np.abs(true_answers - matrix @ running).mean() / total))
    return averaged / rounds, tuple(trace)


class MWEMSynthesizer(Synthesizer):
    """DP synthetic microdata via MWEM over a packed workload.

    Args:
        workload: the counting-query workload to fit, over the cell domain
            (``workload.n`` must equal the domain size).
        epsilon: total privacy budget of the release.
        rounds: MWEM rounds; each consumes ``epsilon / rounds``.
        attributes: dataset attributes spanning the cell domain (default:
            all non-identifier handling is the caller's job — pass the
            columns to model explicitly).
        domain: a pre-built :class:`CellDomain`; derived from the dataset's
            schema when omitted.
    """

    name = "mwem"

    def __init__(
        self,
        workload: Workload,
        epsilon: float,
        rounds: int = 10,
        attributes: tuple[str, ...] | None = None,
        domain: CellDomain | None = None,
    ):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if rounds <= 0:
            raise ValueError(f"rounds must be positive, got {rounds}")
        if domain is not None and workload.n != domain.size:
            raise ValueError(
                f"workload addresses n={workload.n}, domain has {domain.size} cells"
            )
        self.workload = workload
        self.epsilon = float(epsilon)
        self.rounds = int(rounds)
        self.attributes = tuple(attributes) if attributes is not None else None
        self.domain = domain

    @property
    def spec(self) -> MechanismSpec:
        return MechanismSpec(
            name=f"mwem(eps={self.epsilon}, rounds={self.rounds})",
            kernel=LaplaceKernel.calibrate(
                self.epsilon / (2.0 * self.rounds), sensitivity=1.0
            ),
            spend=PrivacySpend(self.epsilon, label="mwem"),
            sensitivity=1.0,
            dp=True,
        )

    def _synthesize(
        self, dataset: Dataset, rng: np.random.Generator
    ) -> SyntheticRelease:
        domain = self.domain
        if domain is None:
            domain = CellDomain.from_dataset(dataset, self.attributes)
        if self.workload.n != domain.size:
            raise ValueError(
                f"workload addresses n={self.workload.n}, domain has "
                f"{domain.size} cells"
            )
        histogram = domain.encode(dataset)
        averaged, trace = run_mwem(
            histogram, self.workload, self.epsilon, self.rounds, rng
        )
        total = int(histogram.sum())
        counts = rng.multinomial(total, averaged / averaged.sum())
        return SyntheticRelease(
            data=domain.to_dataset(counts),
            spec=self.spec,
            histogram=counts.astype(np.int64),
            domain=domain,
            error_trace=trace,
        )
