"""The PSO security game — Definition 2.4 as a Monte-Carlo experiment.

One trial of the game:

1. sample ``x ~ D^n``;
2. publish ``y := M(x)``;
3. the adversary outputs a predicate ``p := A(y)``;
4. the adversary **wins** iff ``p`` isolates in ``x``
   (``sum_i p(x_i) = 1``) *and* ``w_D(p)`` is negligible
   (operationally: at most ``n**-negligible_exponent``).

The mechanism *prevents predicate singling out* when every adversary's win
probability is negligible; the game estimates one adversary's win rate with
a Wilson interval, alongside the two diagnostic rates the paper's
discussion needs — isolation ignoring the weight condition (the trivial
attacker's ~37% lives here) and the weight-condition pass rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.mechanisms import Mechanism
from repro.core.predicate import Predicate
from repro.data.distributions import ProductDistribution
from repro.utils.negligible import (
    baseline_isolation_probability,
    negligible_weight_threshold,
)
from repro.utils.parallel import parallel_map
from repro.utils.rng import RngSeed, spawn_rngs
from repro.utils.stats import BinomialEstimate, estimate_proportion


@dataclass(frozen=True)
class PSOContext:
    """What the adversary legitimately knows when attacking.

    Per Section 2.2 the adversary knows the data-generation model (``D`` may
    be unknown in general; our attackers use only its *schema* and
    min-entropy, which is the weaker knowledge the definition grants) and
    the dataset size ``n``.

    ``mode`` selects which weight regime counts as a win (the paper's
    footnote 11): ``"light"`` — the default, weight must be negligible
    (below ``n**-negligible_exponent``); ``"heavy"`` — the analogous but
    "less natural" regime, weight must be ``omega(log n / n)``
    (operationally: at least ``heavy_coefficient * ln(n) / n``).  In both
    regimes a data-independent predicate isolates with negligible
    probability, so either win condition demands real leakage.
    """

    n: int
    distribution: ProductDistribution
    negligible_exponent: float = 2.0
    mode: str = "light"
    heavy_coefficient: float = 4.0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.mode not in ("light", "heavy"):
            raise ValueError(f"unknown PSO mode: {self.mode!r}")
        if self.heavy_coefficient <= 1.0:
            raise ValueError("heavy_coefficient must exceed 1")

    @property
    def weight_threshold(self) -> float:
        """The finite-n negligibility cutoff for light-mode predicate weights."""
        return negligible_weight_threshold(self.n, self.negligible_exponent)

    @property
    def heavy_threshold(self) -> float:
        """The finite-n floor for heavy-mode predicate weights."""
        return min(1.0, self.heavy_coefficient * math.log(self.n) / self.n)

    def weight_qualifies(self, weight: float) -> bool:
        """Whether a predicate weight satisfies this mode's win condition."""
        if self.mode == "light":
            return weight <= self.weight_threshold
        return weight >= self.heavy_threshold


@runtime_checkable
class Adversary(Protocol):
    """A PSO adversary: sees the mechanism output, emits a predicate."""

    @property
    def name(self) -> str:
        """Adversary name for reports."""
        ...

    def attack(self, output: object, context: PSOContext, rng) -> Predicate | None:
        """Produce a predicate from the published output (None = abstain)."""
        ...


@dataclass(frozen=True)
class PSOTrial:
    """One trial's outcome (kept for diagnostics and tests)."""

    isolated: bool
    weight_bound: float
    weight_negligible: bool
    abstained: bool

    @property
    def succeeded(self) -> bool:
        """Whether the adversary won this trial (Definition 2.4's event)."""
        return self.isolated and self.weight_negligible


@dataclass(frozen=True)
class PSOGameResult:
    """Aggregated game outcome with confidence intervals."""

    mechanism_name: str
    adversary_name: str
    n: int
    weight_threshold: float
    trials: tuple[PSOTrial, ...]

    def _rate(self, successes: int) -> BinomialEstimate:
        return estimate_proportion(successes, len(self.trials))

    @property
    def success(self) -> BinomialEstimate:
        """Win rate: isolation with negligible weight (the PSO event)."""
        return self._rate(sum(1 for t in self.trials if t.succeeded))

    @property
    def isolation_rate(self) -> BinomialEstimate:
        """Isolation rate ignoring the weight condition (diagnostic)."""
        return self._rate(sum(1 for t in self.trials if t.isolated))

    @property
    def negligible_weight_rate(self) -> BinomialEstimate:
        """How often the adversary's predicate met the weight condition."""
        return self._rate(sum(1 for t in self.trials if t.weight_negligible))

    @property
    def baseline(self) -> float:
        """The best data-independent isolation probability (~37% at w=1/n)."""
        return baseline_isolation_probability(self.n)

    def beats_baseline(self) -> bool:
        """Whether the win rate significantly exceeds what *no* output allows.

        A data-independent predicate that satisfies the weight condition
        isolates with probability at most ``n * threshold`` — compare
        against that, not against the 37% of the non-negligible baseline.
        """
        trivial_win_probability = min(1.0, self.n * self.weight_threshold)
        return self.success.lower > trivial_win_probability

    def __str__(self) -> str:
        return (
            f"PSO game [{self.mechanism_name} vs {self.adversary_name}] "
            f"n={self.n}: success {self.success}, "
            f"isolation {self.isolation_rate.estimate:.3f}, "
            f"weight-ok {self.negligible_weight_rate.estimate:.3f}"
        )


class PSOGame:
    """Runs repeated trials of Definition 2.4's experiment.

    Args:
        distribution: the data distribution ``D``.
        n: dataset size.
        mechanism: the mechanism under attack.
        adversary: the attacker.
        negligible_exponent: finite-n negligibility exponent (see
            :mod:`repro.utils.negligible`).
        weight_samples: Monte-Carlo sample size for predicates whose weight
            has no exact/analytic route (rare; structural and hash
            predicates avoid it).
    """

    def __init__(
        self,
        distribution: ProductDistribution,
        n: int,
        mechanism: Mechanism,
        adversary: Adversary,
        negligible_exponent: float = 2.0,
        weight_samples: int = 4_000,
        mode: str = "light",
    ):
        self.context = PSOContext(
            n=n,
            distribution=distribution,
            negligible_exponent=negligible_exponent,
            mode=mode,
        )
        self.mechanism = mechanism
        self.adversary = adversary
        self.weight_samples = int(weight_samples)

    def run_trial(self, rng: RngSeed = None) -> PSOTrial:
        """Play the game once."""
        data_rng, mech_rng, adv_rng, weight_rng = spawn_rngs(rng, 4)
        data = self.context.distribution.sample(self.context.n, data_rng)
        output = self.mechanism.release(data, mech_rng)
        predicate = self.adversary.attack(output, self.context, adv_rng)
        if predicate is None:
            return PSOTrial(
                isolated=False,
                weight_bound=1.0,
                weight_negligible=False,
                abstained=True,
            )
        isolated = data.match_count(predicate) == 1
        weight_bound = predicate.weight_bound(
            self.context.distribution, samples=self.weight_samples, rng=weight_rng
        )
        return PSOTrial(
            isolated=isolated,
            weight_bound=weight_bound,
            weight_negligible=self.context.weight_qualifies(weight_bound),
            abstained=False,
        )

    def run(
        self,
        trials: int,
        rng: RngSeed = None,
        jobs: int = 1,
    ) -> PSOGameResult:
        """Play ``trials`` independent games and aggregate.

        Args:
            trials: number of independent games.
            rng: master seed; it fans out into one stream per trial.
            jobs: worker count for trial execution (``1`` = in-process
                serial loop; ``-1`` = all cores; see
                :func:`repro.utils.parallel.parallel_map`).  For a fixed
                ``rng`` the result is bit-identical for every ``jobs``
                value — trials are pure functions of their spawned stream,
                and results return in trial order.
        """
        if trials <= 0:
            raise ValueError("trials must be positive")
        streams = spawn_rngs(rng, trials)
        outcomes = tuple(parallel_map(self.run_trial, streams, jobs=jobs))
        return PSOGameResult(
            mechanism_name=self.mechanism.name,
            adversary_name=self.adversary.name,
            n=self.context.n,
            weight_threshold=self.context.weight_threshold,
            trials=outcomes,
        )
