"""Statistical helpers used by every Monte-Carlo experiment.

All empirical claims in the reproduction ("the attack succeeds with
probability ~37%", "the mechanism's ratio is bounded by e^eps") are reported
as binomial proportions with confidence intervals, never as bare point
estimates.  Two interval constructions are provided:

* :func:`wilson_interval` — the default; good coverage at moderate n.
* :func:`clopper_pearson_interval` — exact (conservative); used by the DP
  verifier where one-sided guarantees matter.

Their quantiles are :mod:`scipy.special`'s ``ndtri`` and ``betaincinv``, the
functions behind ``scipy.stats``' normal and beta ``ppf``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, ndtri


@dataclass(frozen=True)
class BinomialEstimate:
    """A binomial proportion estimate with a confidence interval.

    Attributes:
        successes: number of successes observed.
        trials: number of independent trials.
        estimate: the point estimate ``successes / trials``.
        lower: lower confidence bound.
        upper: upper confidence bound.
        confidence: the confidence level the bounds were computed at.
    """

    successes: int
    trials: int
    estimate: float
    lower: float
    upper: float
    confidence: float

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")

    def contains(self, probability: float) -> bool:
        """Return whether ``probability`` lies inside the interval."""
        return self.lower <= probability <= self.upper

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4f} "
            f"[{self.lower:.4f}, {self.upper:.4f}] "
            f"({self.successes}/{self.trials})"
        )


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because it behaves sensibly at
    proportions near 0 and 1, which is exactly where privacy experiments live
    (attack success ~0 for secure mechanisms, ~1 for broken ones).
    """
    _validate_counts(successes, trials, confidence)
    z = float(ndtri(0.5 + confidence / 2.0))
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    margin = (z / denom) * np.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - margin), min(1.0, center + margin)


def clopper_pearson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Exact (Clopper-Pearson) binomial interval.

    Conservative: the true coverage is at least ``confidence``.  Used where a
    guaranteed one-sided bound is needed, e.g. upper-bounding an attacker's
    success probability when zero successes were observed.
    """
    _validate_counts(successes, trials, confidence)
    alpha = 1.0 - confidence
    if successes == 0:
        lower = 0.0
    else:
        lower = float(betaincinv(successes, trials - successes + 1, alpha / 2))
    if successes == trials:
        upper = 1.0
    else:
        upper = float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return lower, upper


def estimate_proportion(
    successes: int,
    trials: int,
    confidence: float = 0.95,
    method: str = "wilson",
) -> BinomialEstimate:
    """Build a :class:`BinomialEstimate` using the requested interval method."""
    if method == "wilson":
        lower, upper = wilson_interval(successes, trials, confidence)
    elif method == "clopper-pearson":
        lower, upper = clopper_pearson_interval(successes, trials, confidence)
    else:
        raise ValueError(f"unknown interval method: {method!r}")
    return BinomialEstimate(
        successes=successes,
        trials=trials,
        estimate=successes / trials,
        lower=lower,
        upper=upper,
        confidence=confidence,
    )


def _validate_counts(successes: int, trials: int, confidence: float) -> None:
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
