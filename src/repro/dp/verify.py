"""Empirical differential-privacy verification.

The paper's program is that claims like Theorem 1.3 ("the Laplace mechanism
is epsilon-DP") should be *falsifiable*.  This module provides the
measurement: run a mechanism many times on two neighboring datasets, and
test Definition 1.2's inequality ``Pr[M(x) in T] <= e^eps * Pr[M(x') in T]``
over a family of events ``T`` using exact (Clopper-Pearson) confidence
bounds.

A verdict can *certify a violation* (statistically significant breach of
the inequality) but can only ever report *consistency* — not prove privacy;
that asymmetry is inherent to black-box testing and is reported explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.privacy.kernels import MechanismSpec
from repro.utils.rng import RngSeed, spawn_rngs
from repro.utils.stats import clopper_pearson_interval

Output = TypeVar("Output")

#: A randomized mechanism under test: (data, rng) -> output.
MechanismFn = Callable[[object, np.random.Generator], Output]

#: An output event T subseteq Y, as a membership test.
Event = Callable[[Output], bool]


@dataclass(frozen=True)
class EventCheck:
    """Per-event verification outcome.

    Attributes:
        label: human-readable event description.
        p_x: empirical Pr[M(x) in T].
        p_x_prime: empirical Pr[M(x') in T].
        log_ratio: log(p_x / p_x_prime) point estimate (inf-safe).
        violation_certified: whether the confidence bounds prove the
            DP inequality fails in either direction.
    """

    label: str
    p_x: float
    p_x_prime: float
    log_ratio: float
    violation_certified: bool


@dataclass(frozen=True)
class DPVerdict:
    """Outcome of an empirical DP check.

    ``consistent`` means no event certified a violation — evidence for, not
    proof of, the claimed epsilon.
    """

    epsilon_claimed: float
    trials: int
    checks: tuple[EventCheck, ...]

    @property
    def consistent(self) -> bool:
        """Whether every event check passed."""
        return not any(check.violation_certified for check in self.checks)

    @property
    def max_observed_log_ratio(self) -> float:
        """Largest finite |log probability ratio| observed across events."""
        finite = [abs(c.log_ratio) for c in self.checks if np.isfinite(c.log_ratio)]
        return max(finite) if finite else 0.0

    def __str__(self) -> str:
        status = "consistent with" if self.consistent else "VIOLATES"
        return (
            f"DPVerdict: {status} eps={self.epsilon_claimed} "
            f"(max |log-ratio| {self.max_observed_log_ratio:.3f} over "
            f"{len(self.checks)} events, {self.trials} trials/side)"
        )


def verify_dp(
    mechanism: MechanismFn,
    x: object,
    x_prime: object,
    epsilon: float,
    events: Sequence[tuple[str, Event]] | None = None,
    trials: int = 4_000,
    confidence: float = 0.999,
    num_auto_events: int = 12,
    rng: RngSeed = None,
) -> DPVerdict:
    """Empirically test whether ``mechanism`` is epsilon-DP on a pair.

    Args:
        mechanism: the mechanism under test, ``(data, rng) -> output``.
        x: a dataset.
        x_prime: a neighboring dataset (differs in one record — the caller
            is responsible for neighborliness).
        epsilon: the claimed privacy parameter.
        events: labelled output events to test.  When omitted, threshold
            events are auto-built from pooled numeric outputs (quantile
            cuts), which is the right default for additive-noise mechanisms.
        trials: samples per dataset.
        confidence: per-event confidence for the Clopper-Pearson bounds
            (keep high — many events are tested).
        num_auto_events: number of auto-generated threshold events.
        rng: randomness.

    Returns:
        A :class:`DPVerdict`; ``consistent`` is False only when some event's
        bounds certify ``Pr[M(x) in T] > e^eps * Pr[M(x') in T]`` (or the
        symmetric inequality).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng_x, rng_x_prime = spawn_rngs(rng, 2)

    samples_x = [mechanism(x, rng_x) for _ in range(trials)]
    samples_x_prime = [mechanism(x_prime, rng_x_prime) for _ in range(trials)]

    if events is None:
        events = _auto_threshold_events(samples_x, samples_x_prime, num_auto_events)

    checks = []
    bound = float(np.exp(epsilon))
    for label, event in events:
        count_x = sum(1 for s in samples_x if event(s))
        count_x_prime = sum(1 for s in samples_x_prime if event(s))
        p_x = count_x / trials
        p_x_prime = count_x_prime / trials
        lo_x, hi_x = clopper_pearson_interval(count_x, trials, confidence)
        lo_xp, hi_xp = clopper_pearson_interval(count_x_prime, trials, confidence)
        # A violation is certified when even the most favorable reading of
        # the sampling error cannot satisfy the DP inequality.
        violates_forward = lo_x > bound * hi_xp
        violates_backward = lo_xp > bound * hi_x
        if p_x > 0 and p_x_prime > 0:
            log_ratio = float(np.log(p_x / p_x_prime))
        elif p_x == p_x_prime:
            log_ratio = 0.0
        else:
            log_ratio = float("inf") if p_x > 0 else float("-inf")
        checks.append(
            EventCheck(
                label=label,
                p_x=p_x,
                p_x_prime=p_x_prime,
                log_ratio=log_ratio,
                violation_certified=bool(violates_forward or violates_backward),
            )
        )
    return DPVerdict(epsilon_claimed=float(epsilon), trials=trials, checks=tuple(checks))


def _auto_threshold_events(
    samples_x: Sequence[object],
    samples_x_prime: Sequence[object],
    count: int,
) -> list[tuple[str, Event]]:
    """Threshold events at pooled quantiles of numeric outputs."""
    try:
        pooled = np.asarray(list(samples_x) + list(samples_x_prime), dtype=float)
    except (TypeError, ValueError):
        raise TypeError(
            "outputs are not numeric; pass explicit events to verify_dp"
        ) from None
    quantiles = np.linspace(0.05, 0.95, count)
    thresholds = np.quantile(pooled, quantiles)
    events: list[tuple[str, Event]] = []
    for threshold in np.unique(thresholds):
        events.append(
            (
                f"output <= {threshold:.4g}",
                (lambda t: lambda value: float(value) <= t)(float(threshold)),
            )
        )
    return events


def verify_spec(
    spec: MechanismSpec,
    x: object,
    x_prime: object,
    *,
    statistic: Callable[[object], float] | None = None,
    events: Sequence[tuple[str, Event]] | None = None,
    trials: int = 4_000,
    confidence: float = 0.999,
    num_auto_events: int = 12,
    rng: RngSeed = None,
) -> DPVerdict:
    """Empirically test the exact object the accountant charges.

    Builds the additive-noise mechanism ``statistic(data) + spec.kernel``
    noise (``statistic`` defaults to the subset-count ``sum``, the paper's
    counting query) and runs :func:`verify_dp` against ``spec.spend.epsilon``
    — so the epsilon under test is, by construction, the epsilon the service
    accountant charges for this spec, and the noise is drawn by the same
    kernel the answerers sample.  This closes the mechanism/accounting drift
    loop: there is no second object whose privacy could silently diverge.
    """
    if not spec.dp:
        raise ValueError(f"spec {spec.name!r} makes no DP claim to verify")
    kernel = spec.kernel

    def mechanism(data: object, generator: np.random.Generator) -> float:
        true_value = float(statistic(data)) if statistic is not None else float(np.sum(data))
        return float(true_value + kernel.sample(generator))

    return verify_dp(
        mechanism,
        x,
        x_prime,
        epsilon=spec.spend.epsilon,
        events=events,
        trials=trials,
        confidence=confidence,
        num_auto_events=num_auto_events,
        rng=rng,
    )
