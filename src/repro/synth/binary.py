"""Synthetic releases of binary vectors — the Dinur-Nissim data model.

The interactive stack (PR 3/4) serves subset-count queries over a secret
``x in {0,1}^n``.  This module runs the same MWEM core as
:mod:`repro.synth.mwem` on that model: the vector *is* an ``n``-cell
histogram whose total is the (public) number of ones, a
:class:`~repro.queries.workload.Workload` is already the query family, and
the released object is a synthetic bit vector obtained by top-k rounding
of the fitted weights.  :class:`~repro.service.server.QueryServer` uses it
for its ``synthetic_fallback`` mode: once an analyst's interactive budget
is gone, further queries are answered *exactly* on the synthetic vector —
free post-processing of one pre-paid DP release instead of a hard cut-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.privacy.accounting import PrivacyAccountant, PrivacySpend
from repro.privacy.kernels import LaplaceKernel, MechanismSpec
from repro.queries.workload import Workload
from repro.synth.mwem import run_mwem
from repro.utils.rng import RngSeed, ensure_rng

__all__ = ["BinaryRelease", "synthesize_binary"]


@dataclass(frozen=True)
class BinaryRelease:
    """A synthetic bit vector and the mechanism identity that paid for it.

    Attributes:
        vector: the released ``{0,1}^n`` vector (int64).
        spec: the auditable mechanism identity; ``spec.spend`` is the whole
            release's privacy cost — answers computed *on* the vector are
            post-processing and cost nothing further.
        error_trace: per-round workload error of the MWEM fit.
    """

    vector: np.ndarray
    spec: MechanismSpec
    error_trace: tuple[float, ...] = field(default=(), compare=False)

    @property
    def n(self) -> int:
        return int(self.vector.size)

    def answer(self, mask: np.ndarray) -> int:
        """Exact subset count on the synthetic vector (post-processing)."""
        mask = np.asarray(mask)
        if mask.shape != self.vector.shape:
            raise ValueError(
                f"mask has shape {mask.shape}, release has n={self.n}"
            )
        return int(self.vector[mask.astype(bool)].sum())

    def answer_workload(self, workload: Workload) -> np.ndarray:
        """Exact answers to a whole workload on the synthetic vector."""
        if workload.n != self.n:
            raise ValueError(
                f"workload addresses n={workload.n}, release has n={self.n}"
            )
        return np.asarray(
            workload.matrix(sparse=True) @ self.vector, dtype=np.int64
        )


def synthesize_binary(
    data: np.ndarray,
    epsilon: float,
    rounds: int = 10,
    *,
    workload: Workload | None = None,
    num_queries: int | None = None,
    density: float = 0.5,
    accountant: PrivacyAccountant | None = None,
    rng: RngSeed = None,
) -> BinaryRelease:
    """One MWEM release of a secret bit vector.

    The fitting workload is either supplied or drawn as ``num_queries``
    (default ``4 n``) random subsets from ``rng``; the number of ones is
    treated as public (it is MWEM's histogram total).  When ``accountant``
    is given the full ``epsilon`` is reserved before any noise is drawn
    and rolled back if synthesis fails, exactly as
    :meth:`repro.synth.base.Synthesizer.synthesize` does.
    """
    data = np.asarray(data)
    if data.ndim != 1:
        raise ValueError("data must be a one-dimensional bit vector")
    if not np.isin(data, (0, 1)).all():
        raise ValueError("data must be a {0,1} vector")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    n = data.size
    generator = ensure_rng(rng)
    spec = MechanismSpec(
        name=f"mwem-binary(eps={epsilon}, rounds={rounds})",
        kernel=LaplaceKernel.calibrate(epsilon / (2.0 * rounds), sensitivity=1.0),
        spend=PrivacySpend(float(epsilon), label="mwem-binary"),
        sensitivity=1.0,
        dp=True,
    )
    if accountant is not None:
        accountant.reserve(1, spec.spend.epsilon, spec.spend.delta)
    try:
        if workload is None:
            if num_queries is None:
                num_queries = 4 * n
            workload = Workload.random(n, num_queries, density=density, rng=generator)
        elif workload.n != n:
            raise ValueError(f"workload addresses n={workload.n}, data has n={n}")
        ones = int(data.sum())
        if ones == 0 or ones == n:
            # Degenerate vectors have nothing to fit; the (public) total
            # determines the release outright.
            vector = np.full(n, 1 if ones else 0, dtype=np.int64)
            trace: tuple[float, ...] = ()
        else:
            averaged, trace = run_mwem(
                data.astype(np.float64), workload, epsilon, rounds, generator
            )
            order = np.argsort(-averaged, kind="stable")
            vector = np.zeros(n, dtype=np.int64)
            vector[order[:ones]] = 1
    except BaseException:
        if accountant is not None:
            accountant.rollback(1, spec.spend.epsilon, spec.spend.delta)
        raise
    return BinaryRelease(vector=vector, spec=spec, error_trace=trace)
