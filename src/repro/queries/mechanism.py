"""Query-answering mechanisms with the noise models the paper discusses.

Each :class:`QueryAnswerer` holds a private binary dataset and answers
:class:`~repro.queries.query.SubsetQuery` objects.  The subclasses realize
the regimes of Theorem 1.1 and of the "Fundamental Law of Information
Recovery":

* :class:`ExactAnswerer` — no protection at all (alpha = 0).
* :class:`BoundedNoiseAnswerer` — worst-case error bounded by ``alpha``
  (the theorem's accuracy guarantee), with selectable noise shapes.
* :class:`RoundingAnswerer` — answers rounded to a grid, a common (broken)
  pre-DP disclosure-limitation method; error bounded by half the grid step.
* :class:`SubsamplingAnswerer` — answers computed from a random subsample,
  another classic statistical-disclosure-control technique.
* :class:`LaplaceAnswerer` — the Laplace mechanism of Theorem 1.3, spending
  ``epsilon_per_query`` per answer; *not* bounded-error, and the one
  defense here that actually composes safely.
* :class:`GaussianAnswerer` — the Gaussian mechanism, (epsilon, delta)-DP
  per answer with the classical sigma calibration; the approximate-DP
  regime of the 2020 Census deployment.

Answerers serve queries two ways: one at a time through :meth:`answer`, or
a whole :class:`~repro.queries.workload.Workload` at once through
:meth:`answer_workload`, which computes every true answer with one sparse
matrix-vector product and draws all noise in one vectorized RNG call.

All noise comes from :mod:`repro.privacy.kernels`: each answerer builds its
:class:`~repro.privacy.kernels.NoiseKernel` once (the kernel owns the
sigma/scale calibration — it is not re-derived here) and publishes it in a
:class:`~repro.privacy.kernels.MechanismSpec` via :attr:`QueryAnswerer.spec`,
so the service accountant charges and the DP verifier tests the identical
object that answers queries.  Because each kernel sample consumes exactly
one underlying uniform draw in either path, the batched answers are
bit-identical to the per-query loop for any seed and any batch split —
determinism is never the price of speed.

All answerers count how many queries they served; the attacks report that
number, since "too many questions" is half of the Fundamental Law.  The
matching defense, a cap on the questions one analyst may ask, is the
service accountant's ``max_queries_per_analyst``
(:class:`~repro.privacy.accounting.BasicAccountant`).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.privacy.accounting import PrivacySpend
from repro.privacy.kernels import (
    BoundedExtremesKernel,
    BoundedUniformKernel,
    GaussianKernel,
    LaplaceKernel,
    MechanismSpec,
    ZeroKernel,
)
from repro.queries.query import SubsetQuery, _validate_binary
from repro.queries.workload import Workload
from repro.utils.rng import RngSeed, ensure_rng


class QueryAnswerer(ABC):
    """Holds a private binary dataset; answers subset queries.

    The private data is validated (shape, 0/1 entries) exactly once, here at
    construction; the per-query and batched answer paths both reuse the
    validated array without re-checking it.

    Answerers are safe to share across threads: each instance serializes its
    answer paths under a lock, so concurrent :meth:`answer` /
    :meth:`answer_workload` calls cannot corrupt the RNG stream or lose
    counter increments.  *Which* answer a given call receives still depends
    on arrival order — callers that need per-caller determinism (e.g. the
    query service) give each caller its own answerer instance.
    """

    def __init__(self, data: np.ndarray):
        self._data = _validate_binary(np.asarray(data), np.asarray(data).size)
        self.queries_answered = 0
        self._answer_lock = threading.Lock()

    @property
    def n(self) -> int:
        """Size of the private dataset."""
        return int(self._data.size)

    def _true(self, query: SubsetQuery) -> int:
        """Exact answer on the (already validated) private data."""
        return int(self._data[query.mask].sum())

    def answer(self, query: SubsetQuery) -> float:
        """Answer one query (subclasses add their noise in :meth:`_noisy`)."""
        if query.n != self.n:
            raise ValueError(f"query addresses n={query.n}, data has n={self.n}")
        with self._answer_lock:
            self.queries_answered += 1
            return self._noisy(query)

    def answer_workload(self, workload: Workload | Sequence[SubsetQuery]) -> np.ndarray:
        """Answer a packed workload; returns an ``(m,)`` array of answers.

        Bit-identical to calling :meth:`answer` on each query in order (for
        the same RNG state), but the true answers come from one sparse
        matvec and the noise from one vectorized draw.  The query counter
        advances by ``m``.
        """
        workload = Workload.coerce(workload)
        if workload.n != self.n:
            raise ValueError(f"workload addresses n={workload.n}, data has n={self.n}")
        with self._answer_lock:
            answers = self._noisy_workload(workload)
            self.queries_answered += len(workload)
        return answers

    @property
    def spec(self) -> MechanismSpec:
        """The mechanism's auditable identity: kernel + per-query spend.

        The service accountant charges ``spec.spend`` per answered query and
        :func:`repro.dp.verify.verify_spec` empirically tests ``spec.kernel``
        — the same object in all three places.  Subclasses describe
        themselves in :meth:`_build_spec`; the result is cached.
        """
        spec = getattr(self, "_spec", None)
        if spec is None:
            spec = self._build_spec()
            self._spec = spec
        return spec

    def _build_spec(self) -> MechanismSpec:
        """Default spec for subclasses that predate the kernel layer."""
        return MechanismSpec(
            name=type(self).__name__,
            kernel=ZeroKernel(),
            spend=PrivacySpend(float(getattr(self, "epsilon_per_query", 0.0))),
            error_bound=self.error_bound,
        )

    @abstractmethod
    def _noisy(self, query: SubsetQuery) -> float:
        """The (possibly noisy) answer to ``query``."""

    def _noisy_workload(self, workload: Workload) -> np.ndarray:
        """Batched noisy answers; subclasses override with vectorized paths.

        The base implementation loops :meth:`_noisy` so third-party
        subclasses that only define the scalar path stay correct.
        """
        return np.array([self._noisy(query) for query in workload], dtype=float)

    @property
    @abstractmethod
    def error_bound(self) -> float:
        """A worst-case bound alpha on ``|answer - true|``, or ``inf``."""


class ExactAnswerer(QueryAnswerer):
    """Answers every query exactly (alpha = 0): blatantly non-private."""

    @property
    def error_bound(self) -> float:
        return 0.0

    def _build_spec(self) -> MechanismSpec:
        return MechanismSpec(name="exact", kernel=ZeroKernel(), error_bound=0.0)

    def _noisy(self, query: SubsetQuery) -> float:
        return float(self._true(query))

    def _noisy_workload(self, workload: Workload) -> np.ndarray:
        return workload.true_answers(self._data, validate=False).astype(np.float64)


class BoundedNoiseAnswerer(QueryAnswerer):
    """Adds noise guaranteed to stay within ``alpha`` of the true answer.

    ``shape`` selects the noise distribution within the [-alpha, alpha]
    envelope:

    * ``"uniform"`` — uniform on [-alpha, alpha] (the default);
    * ``"extremes"`` — a fair coin on {-alpha, +alpha} (worst case for
      averaging-style defenses, still within the theorem's model).
    """

    def __init__(self, data: np.ndarray, alpha: float, shape: str = "uniform", rng: RngSeed = None):
        super().__init__(data)
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        if shape not in ("uniform", "extremes"):
            raise ValueError(f"unknown noise shape: {shape!r}")
        self.alpha = float(alpha)
        self.shape = shape
        kernel_class = BoundedUniformKernel if shape == "uniform" else BoundedExtremesKernel
        self._kernel = kernel_class(self.alpha)
        self._rng = ensure_rng(rng)

    @property
    def error_bound(self) -> float:
        return self.alpha

    def _build_spec(self) -> MechanismSpec:
        return MechanismSpec(
            name=f"bounded-{self.shape}",
            kernel=self._kernel,
            error_bound=self.alpha,
        )

    def _noisy(self, query: SubsetQuery) -> float:
        return float(self._true(query) + self._kernel.sample(self._rng))

    def _noisy_workload(self, workload: Workload) -> np.ndarray:
        true = workload.true_answers(self._data, validate=False).astype(np.float64)
        return true + self._kernel.sample_n(self._rng, len(workload))


class RoundingAnswerer(QueryAnswerer):
    """Rounds answers to the nearest multiple of ``step`` (alpha = step/2)."""

    def __init__(self, data: np.ndarray, step: int):
        super().__init__(data)
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        self.step = int(step)

    @property
    def error_bound(self) -> float:
        return self.step / 2.0

    def _build_spec(self) -> MechanismSpec:
        return MechanismSpec(
            name=f"rounding(step={self.step})",
            kernel=ZeroKernel(),
            error_bound=self.step / 2.0,
        )

    def _noisy(self, query: SubsetQuery) -> float:
        true = self._true(query)
        return float(round(true / self.step) * self.step)

    def _noisy_workload(self, workload: Workload) -> np.ndarray:
        true = workload.true_answers(self._data, validate=False)
        # np.round and Python round() both round half to even, so the
        # vectorized grid matches the scalar path exactly.
        return np.round(true / self.step) * self.step


class SubsamplingAnswerer(QueryAnswerer):
    """Answers from a random ``rate`` subsample, scaled back up.

    A classic SDC technique: compute the statistic on a subsample and
    extrapolate.  The error is *not* worst-case bounded (``error_bound`` is
    the ~95th percentile of the binomial deviation), which is exactly why
    the reconstruction experiments show it failing at high subsampling
    rates and defending only when the implied noise exceeds ~sqrt(n).
    """

    def __init__(self, data: np.ndarray, rate: float, rng: RngSeed = None):
        super().__init__(data)
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must lie in (0, 1], got {rate}")
        self.rate = float(rate)
        generator = ensure_rng(rng)
        keep = generator.random(self.n) < rate
        self._subsample_mask = keep
        # The subsample is fixed at construction, so batched answering only
        # needs the sampled records: zeroing the rest lets true_answers run
        # the same sparse matvec against the thinned data.
        self._subsampled_data = np.where(keep, self._data, 0)

    @property
    def error_bound(self) -> float:
        # ~2 standard deviations of the subsampling error on a size-n/2 query.
        return 2.0 * np.sqrt(self.n * (1 - self.rate) / max(self.rate, 1e-12)) / 2.0

    def _build_spec(self) -> MechanismSpec:
        return MechanismSpec(
            name=f"subsample(rate={self.rate})",
            kernel=ZeroKernel(),
            error_bound=self.error_bound,
        )

    def _noisy(self, query: SubsetQuery) -> float:
        selected = query.mask & self._subsample_mask
        count = float(self._data[selected].sum())
        return count / self.rate

    def _noisy_workload(self, workload: Workload) -> np.ndarray:
        counts = workload.true_answers(self._subsampled_data, validate=False)
        return counts.astype(np.float64) / self.rate


class LaplaceAnswerer(QueryAnswerer):
    """The Laplace mechanism (Theorem 1.3), one epsilon charge per query.

    Each subset-count query has sensitivity 1, so adding ``Lap(1/eps)``
    noise makes each answer eps-differentially private; ``k`` answers
    compose to ``k * eps`` (tracked in :attr:`epsilon_spent`).
    """

    def __init__(self, data: np.ndarray, epsilon_per_query: float, rng: RngSeed = None):
        super().__init__(data)
        if not epsilon_per_query > 0:
            raise ValueError("epsilon_per_query must be positive")
        self.epsilon_per_query = float(epsilon_per_query)
        self._kernel = LaplaceKernel.calibrate(self.epsilon_per_query, sensitivity=1.0)
        self._rng = ensure_rng(rng)

    @property
    def error_bound(self) -> float:
        return float("inf")  # Laplace noise is unbounded.

    @property
    def epsilon_spent(self) -> float:
        """Total privacy loss under basic composition."""
        return self.queries_answered * self.epsilon_per_query

    def _build_spec(self) -> MechanismSpec:
        return MechanismSpec(
            name=f"laplace(eps={self.epsilon_per_query})",
            kernel=self._kernel,
            spend=PrivacySpend(self.epsilon_per_query),
            dp=True,
        )

    def _noisy(self, query: SubsetQuery) -> float:
        return float(self._true(query) + self._kernel.sample(self._rng))

    def _noisy_workload(self, workload: Workload) -> np.ndarray:
        true = workload.true_answers(self._data, validate=False).astype(np.float64)
        return true + self._kernel.sample_n(self._rng, len(workload))


class GaussianAnswerer(QueryAnswerer):
    """The Gaussian mechanism: (epsilon, delta)-DP per answer.

    Each subset-count query has sensitivity 1, so adding ``N(0, sigma^2)``
    noise with the classical calibration ``sigma = sqrt(2 ln(1.25/delta)) /
    epsilon`` makes each answer (epsilon, delta)-differentially private for
    ``epsilon <= 1``.  Like :class:`LaplaceAnswerer` the error is unbounded,
    so the LP attack must fall back to least-l1 decoding; unlike Laplace the
    guarantee is approximate DP, the regime of the 2020 Census deployment.
    """

    def __init__(
        self,
        data: np.ndarray,
        epsilon_per_query: float,
        delta_per_query: float = 1e-6,
        rng: RngSeed = None,
    ):
        super().__init__(data)
        # The kernel owns the classical sigma calibration (and its
        # 0 < epsilon <= 1 validity check) — nothing is re-derived here.
        self._kernel = GaussianKernel.calibrate(
            epsilon_per_query, delta_per_query, sensitivity=1.0
        )
        self.epsilon_per_query = float(epsilon_per_query)
        self.delta_per_query = float(delta_per_query)
        self.sigma = self._kernel.sigma
        self._rng = ensure_rng(rng)

    @property
    def error_bound(self) -> float:
        return float("inf")  # Gaussian noise is unbounded.

    @property
    def epsilon_spent(self) -> float:
        """Total epsilon under basic composition (delta composes likewise)."""
        return self.queries_answered * self.epsilon_per_query

    def _build_spec(self) -> MechanismSpec:
        return MechanismSpec(
            name=f"gaussian(eps={self.epsilon_per_query}, delta={self.delta_per_query})",
            kernel=self._kernel,
            spend=PrivacySpend(self.epsilon_per_query, self.delta_per_query),
            dp=True,
        )

    def _noisy(self, query: SubsetQuery) -> float:
        return float(self._true(query) + self._kernel.sample(self._rng))

    def _noisy_workload(self, workload: Workload) -> np.ndarray:
        true = workload.true_answers(self._data, validate=False).astype(np.float64)
        return true + self._kernel.sample_n(self._rng, len(workload))
