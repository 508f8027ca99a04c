"""The Section 2 theorems as executable, falsifiable checks.

Each function runs the relevant PSO game (or DP verification) and returns a
:class:`TheoremCheck` recording the theorem's claim, the measurement, and a
pass/fail verdict.  These are the technical premises the legal layer
(:mod:`repro.legal.theorems`) consumes: Legal Theorem 2.1 is only derivable
from a *failed-security* measurement, per the paper's insistence that such
statements be mathematically falsifiable (Section 2.4.3).

Default parameters are sized to run in seconds; the benchmark harness
re-runs them at larger scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.anonymity.agreement import AgreementAnonymizer
from repro.core.attackers import (
    KAnonymityPSOAttacker,
    TrivialAttacker,
    build_composition_suite,
)
from repro.core.leftover_hash import hash_bit_predicate
from repro.core.mechanisms import (
    ComposedMechanism,
    CountMechanism,
    DPCountMechanism,
    KAnonymityMechanism,
    PostProcessedMechanism,
)
from repro.core.pso import PSOGame, PSOGameResult
from repro.data.distributions import uniform_bits_distribution
from repro.dp.laplace import LaplaceMechanism
from repro.dp.verify import verify_spec
from repro.utils.parallel import parallel_map
from repro.utils.rng import RngSeed, derive_rng


@dataclass(frozen=True)
class TheoremCheck:
    """An executable theorem's verdict.

    Attributes:
        theorem: the paper's theorem number.
        claim: the claim in one sentence.
        passed: whether the measurement is consistent with the claim.
        measurements: named measured quantities backing the verdict.
    """

    theorem: str
    claim: str
    passed: bool
    measurements: dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] Theorem {self.theorem}: {self.claim}"


def _secure_upper_bound(result: PSOGameResult, slack: float = 0.03) -> float:
    """Success ceiling below which we call a mechanism empirically PSO-secure.

    The theoretical win ceiling for *any* weight-compliant data-independent
    predicate is ``n * threshold``; add Monte-Carlo slack for the finite
    trial count.
    """
    return min(1.0, result.n * result.weight_threshold) + slack


def check_count_mechanism_pso_security(
    n: int = 200,
    width: int = 64,
    trials: int = 150,
    rng: RngSeed = 0,
    jobs: int = 1,
) -> TheoremCheck:
    """Theorem 2.5: the counting mechanism M#q prevents predicate singling out.

    Plays the game against the trivial attacker at both weight presets (no
    attacker can do better against a single exact count; the count is a
    symmetric function carrying ~log n bits).
    """
    distribution = uniform_bits_distribution(width)
    mechanism = CountMechanism(hash_bit_predicate("thm2.5-q", 0))
    results = {}
    passed = True
    for preset in ("negligible", "optimal"):
        game = PSOGame(distribution, n, mechanism, TrivialAttacker(preset))
        result = game.run(trials, derive_rng(rng, "thm2.5", preset), jobs=jobs)
        results[f"success[{preset}]"] = str(result.success)
        passed = passed and result.success.estimate <= _secure_upper_bound(result)
    return TheoremCheck(
        theorem="2.5",
        claim="M#q prevents predicate singling out",
        passed=passed,
        measurements={"n": n, "trials": trials, **results},
    )


def check_post_processing_robustness(
    n: int = 200,
    width: int = 64,
    trials: int = 150,
    rng: RngSeed = 0,
    jobs: int = 1,
) -> TheoremCheck:
    """Theorem 2.6: post-processing preserves security against PSO.

    Attacks ``f(M#q(x))`` for a lossy f (parity) and checks the win rate
    stays at the secure ceiling, like the unprocessed mechanism's.
    """
    distribution = uniform_bits_distribution(width)
    base = CountMechanism(hash_bit_predicate("thm2.6-q", 0))
    processed = PostProcessedMechanism(base, lambda count: count % 2, label="parity")
    game = PSOGame(distribution, n, processed, TrivialAttacker("negligible"))
    result = game.run(trials, derive_rng(rng, "thm2.6"), jobs=jobs)
    passed = result.success.estimate <= _secure_upper_bound(result)
    return TheoremCheck(
        theorem="2.6",
        claim="post-processing a PSO-secure mechanism stays PSO-secure",
        passed=passed,
        measurements={"n": n, "trials": trials, "success": str(result.success)},
    )


def check_composition_attack(
    n: int = 256,
    width: int = 64,
    trials: int = 80,
    min_success: float = 0.2,
    rng: RngSeed = 0,
    jobs: int = 1,
) -> TheoremCheck:
    """Theorem 2.8: omega(log n) count mechanisms compose to enable PSO.

    Runs the constructive attack of :func:`build_composition_suite` and
    requires its win rate to significantly exceed the secure ceiling (which
    is ~n^-1 here) — the paper's incomposability phenomenon.
    """
    distribution = uniform_bits_distribution(width)
    suite = build_composition_suite(n)
    game = PSOGame(distribution, n, suite.mechanism, suite.adversary)
    result = game.run(trials, derive_rng(rng, "thm2.8"), jobs=jobs)
    passed = result.success.lower >= min_success and result.beats_baseline()
    return TheoremCheck(
        theorem="2.8",
        claim="composing omega(log n) count mechanisms fails to prevent PSO",
        passed=passed,
        measurements={
            "n": n,
            "trials": trials,
            "num_count_mechanisms": suite.num_counts,
            "success": str(result.success),
            "weight_threshold": result.weight_threshold,
        },
    )


def check_dp_implies_pso_security(
    epsilon: float = 1.0,
    n: int = 256,
    width: int = 64,
    trials: int = 80,
    rng: RngSeed = 0,
    jobs: int = 1,
) -> TheoremCheck:
    """Theorem 2.9: an epsilon-DP mechanism prevents predicate singling out.

    The sharpest test available: re-run the Theorem 2.8 composition attack,
    but release every count through the Laplace mechanism with the total
    budget split across counts (so the composed release is epsilon-DP).
    The very attack that wins against exact counts must collapse.
    """
    distribution = uniform_bits_distribution(width)
    suite = build_composition_suite(n)
    per_count_epsilon = epsilon / suite.num_counts
    dp_counts = [
        DPCountMechanism(component.query, per_count_epsilon)
        for component in suite.mechanism.mechanisms
    ]
    dp_mechanism = ComposedMechanism(dp_counts)
    game = PSOGame(distribution, n, dp_mechanism, suite.adversary)
    result = game.run(trials, derive_rng(rng, "thm2.9"), jobs=jobs)
    passed = result.success.estimate <= _secure_upper_bound(result)
    return TheoremCheck(
        theorem="2.9",
        claim="epsilon-DP implies security against predicate singling out",
        passed=passed,
        measurements={
            "n": n,
            "trials": trials,
            "epsilon_total": epsilon,
            "per_count_epsilon": per_count_epsilon,
            "success": str(result.success),
        },
    )


def check_kanonymity_fails_pso(
    k: int = 4,
    n: int = 250,
    width: int = 128,
    trials: int = 100,
    rng: RngSeed = 0,
    jobs: int = 1,
) -> TheoremCheck:
    """Theorem 2.10: optimizing k-anonymizers enable PSO w.p. ~37%.

    Runs the refinement attack against the agreement anonymizer on wide
    data.  The expected success is ``(1 - 1/k')^(k'-1)`` for class size
    ``k' = k`` — between 1/e and 1/2 — and must dwarf the secure ceiling.
    """
    distribution = uniform_bits_distribution(width)
    mechanism = KAnonymityMechanism(AgreementAnonymizer(k), label="agreement")
    adversary = KAnonymityPSOAttacker(mode="refine")
    game = PSOGame(distribution, n, mechanism, adversary)
    result = game.run(trials, derive_rng(rng, "thm2.10"), jobs=jobs)
    from repro.core.analysis import refinement_success_probability

    expected = refinement_success_probability(k)
    passed = (
        result.beats_baseline()
        and abs(result.success.estimate - expected) <= 0.15
    )
    return TheoremCheck(
        theorem="2.10",
        claim="k-anonymity enables predicate singling out w.p. ~37%",
        passed=passed,
        measurements={
            "k": k,
            "n": n,
            "trials": trials,
            "success": str(result.success),
            "expected_(1-1/k)^(k-1)": expected,
        },
    )


def check_cohen_singleton_attack(
    k: int = 4,
    n: int = 250,
    width: int = 96,
    secret_values: int = 50,
    trials: int = 80,
    rng: RngSeed = 0,
    jobs: int = 1,
) -> TheoremCheck:
    """Cohen [12]: generalization-based k-anonymity allows PSO w.p. ~100%.

    A standard k-anonymizer generalizes only the quasi-identifiers and
    releases the sensitive column raw; the full released rows then split
    each QI class into (mostly) singletons of negligible weight, and the
    attacker isolates without needing any refinement — success approaches
    100%, the strengthening of Theorem 2.10 cited in Section 2.3.4.
    """
    from repro.data.domain import CategoricalDomain
    from repro.data.distributions import ProductDistribution, uniform_bits_schema
    from repro.data.schema import Attribute, AttributeKind, Schema

    bits_schema = uniform_bits_schema(width)
    schema = Schema(
        list(bits_schema.attributes)
        + [
            Attribute(
                "secret", CategoricalDomain(range(secret_values)), AttributeKind.SENSITIVE
            )
        ]
    )
    distribution = ProductDistribution.uniform(schema)
    mechanism = KAnonymityMechanism(AgreementAnonymizer(k), label="agreement")
    adversary = KAnonymityPSOAttacker(mode="singleton")
    game = PSOGame(distribution, n, mechanism, adversary)
    result = game.run(trials, derive_rng(rng, "cohen"), jobs=jobs)
    passed = result.success.lower >= 0.8
    return TheoremCheck(
        theorem="2.10+ (Cohen [12])",
        claim="generalization-based k-anonymity allows PSO w.p. ~100%",
        passed=passed,
        measurements={
            "k": k,
            "n": n,
            "trials": trials,
            "success": str(result.success),
        },
    )


def check_ldiversity_fails_pso(
    k: int = 4,
    diversity: int = 2,
    n: int = 250,
    width: int = 96,
    secret_values: int = 50,
    trials: int = 60,
    rng: RngSeed = 0,
    jobs: int = 1,
) -> TheoremCheck:
    """Footnote 3: the k-anonymity PSO analysis extends to l-diversity.

    Runs the Cohen singleton attack against releases and counts a trial as a
    *footnote-3 success* only when the release was simultaneously
    k-anonymous and distinct-l-diverse and the attacker won — so the
    verdict speaks about l-diverse releases specifically, not k-anonymity
    in general.
    """
    from repro.anonymity.checks import distinct_l_diversity, is_k_anonymous
    from repro.core.attackers import KAnonymityPSOAttacker as _Attacker
    from repro.data.domain import CategoricalDomain
    from repro.data.distributions import ProductDistribution, uniform_bits_schema
    from repro.data.schema import Attribute, AttributeKind, Schema
    from repro.utils.rng import spawn_rngs
    from repro.utils.stats import estimate_proportion

    bits_schema = uniform_bits_schema(width)
    schema = Schema(
        list(bits_schema.attributes)
        + [
            Attribute(
                "secret", CategoricalDomain(range(secret_values)), AttributeKind.SENSITIVE
            )
        ]
    )
    distribution = ProductDistribution.uniform(schema)
    anonymizer = AgreementAnonymizer(k)
    adversary = _Attacker(mode="singleton")
    context_game = PSOGame(
        distribution, n, KAnonymityMechanism(anonymizer, label="agreement"), adversary
    )

    def footnote3_trial(stream) -> tuple[bool, bool]:
        """One trial: (release was l-diverse, attack additionally won)."""
        data_rng, adv_rng = spawn_rngs(stream, 2)
        data = distribution.sample(n, data_rng)
        release = anonymizer.anonymize(data)
        if not (
            is_k_anonymous(release, k)
            and distinct_l_diversity(release, "secret") >= diversity
        ):
            return False, False  # this release is out of the claim's scope
        predicate = adversary.attack(release, context_game.context, adv_rng)
        if predicate is None:
            return True, False
        matches = data.count(predicate)
        weight = predicate.weight_bound(distribution)
        won = matches == 1 and weight <= context_game.context.weight_threshold
        return True, won

    outcomes = parallel_map(
        footnote3_trial, spawn_rngs(derive_rng(rng, "footnote3"), trials), jobs=jobs
    )
    diverse_trials = sum(diverse for diverse, _won in outcomes)
    diverse_and_broken = sum(won for _diverse, won in outcomes)

    if diverse_trials == 0:
        return TheoremCheck(
            theorem="footnote 3",
            claim="l-diverse k-anonymous releases remain PSO-vulnerable",
            passed=False,
            measurements={"note": "no trial produced an l-diverse release"},
        )
    success = estimate_proportion(diverse_and_broken, diverse_trials)
    return TheoremCheck(
        theorem="footnote 3",
        claim="l-diverse k-anonymous releases remain PSO-vulnerable",
        passed=success.lower >= 0.8,
        measurements={
            "k": k,
            "l": diversity,
            "n": n,
            "l_diverse_trials": diverse_trials,
            "success_on_diverse_releases": str(success),
        },
    )


def check_laplace_is_dp(
    epsilon: float = 1.0,
    trials: int = 4_000,
    rng: RngSeed = 0,
) -> TheoremCheck:
    """Theorem 1.3: the Laplace mechanism is epsilon-differentially private.

    Empirical verification on a neighboring pair of counting inputs.
    """
    mechanism = LaplaceMechanism(epsilon, sensitivity=1.0)
    x = np.array([1, 0, 1, 1, 0])
    x_prime = np.array([1, 0, 1, 0, 0])  # one record changed
    # The spec under test is the same object an accountant would charge:
    # kernel, sensitivity, and claimed epsilon travel together.
    verdict = verify_spec(
        mechanism.spec(),
        x,
        x_prime,
        trials=trials,
        rng=derive_rng(rng, "thm1.3"),
    )
    return TheoremCheck(
        theorem="1.3",
        claim="the Laplace mechanism is epsilon-differentially private",
        passed=verdict.consistent,
        measurements={
            "epsilon": epsilon,
            "trials": trials,
            "max_observed_log_ratio": verdict.max_observed_log_ratio,
            "events": len(verdict.checks),
        },
    )
