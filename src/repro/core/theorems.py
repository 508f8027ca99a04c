"""The Section 2 theorems as executable, falsifiable checks.

Each function plays the relevant PSO games (or DP verification) and returns
a :class:`TheoremCheck` recording the theorem's claim, the measurement, the
results it was measured from, and a pass/fail verdict.  This module is the
one place each Section 2 game is built: experiments E9–E12 render their
tables from the checks' results, and the legal layer
(:mod:`repro.legal.theorems`) takes the checks as its technical premises.
Legal Theorem 2.1 is only derivable from a *failed-security* measurement,
per the paper's insistence that such statements be mathematically
falsifiable (Section 2.4.3).

An integer ``rng`` derives each game's stream from the check's own labels;
a :class:`numpy.random.Generator` is used as given, so an experiment that
passes ``derive_rng(seed, "e12a", k)`` plays exactly the game it labels.
Default parameters are sized to run in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.anonymity.agreement import AgreementAnonymizer
from repro.anonymity.checks import distinct_l_diversity, is_k_anonymous
from repro.core.analysis import refinement_success_probability
from repro.core.attackers import (
    CountExploitingAttacker,
    IdentityAttacker,
    KAnonymityPSOAttacker,
    TrivialAttacker,
    build_composition_suite,
)
from repro.core.leftover_hash import hash_bit_predicate
from repro.core.mechanisms import (
    ComposedMechanism,
    CountMechanism,
    DPCountMechanism,
    IdentityMechanism,
    KAnonymityMechanism,
    PostProcessedMechanism,
)
from repro.core.pso import PSOContext, PSOGame, PSOGameResult
from repro.data.distributions import (
    ProductDistribution,
    uniform_bits_distribution,
    uniform_bits_schema,
)
from repro.data.domain import CategoricalDomain
from repro.data.schema import Attribute, AttributeKind, Schema
from repro.dp.laplace import LaplaceMechanism
from repro.dp.verify import DPVerdict, verify_spec
from repro.utils.parallel import parallel_map
from repro.utils.rng import RngSeed, derive_rng, spawn_rngs
from repro.utils.stats import estimate_proportion

#: The neighbouring counting inputs Theorem 1.3 is verified on: the last
#: record differs.
NEIGHBOURING_INPUTS = (np.array([1, 0, 1, 1, 0, 1]), np.array([1, 0, 1, 1, 0, 0]))


@dataclass(frozen=True)
class TheoremCheck:
    """An executable theorem's verdict.

    Attributes:
        theorem: the paper's theorem number.
        claim: the claim in one sentence.
        passed: whether the measurement is consistent with the claim.
        measurements: named measured quantities backing the verdict.
        results: what was measured, in play order: each PSO game's
            :class:`~repro.core.pso.PSOGameResult`, or the DP check's
            :class:`~repro.dp.verify.DPVerdict` (empty for the footnote-3
            check, which scores its own trials).  Equality ignores them.
    """

    theorem: str
    claim: str
    passed: bool
    measurements: dict[str, object] = field(default_factory=dict)
    results: tuple[PSOGameResult | DPVerdict, ...] = field(
        default=(), compare=False, repr=False
    )

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] Theorem {self.theorem}: {self.claim}"


def _secure_upper_bound(result: PSOGameResult) -> float:
    """Success ceiling below which we call a mechanism empirically PSO-secure.

    The theoretical win ceiling for *any* weight-compliant data-independent
    predicate is ``n * threshold``; add 0.03 of Monte-Carlo slack for the
    finite trial count.
    """
    return min(1.0, result.n * result.weight_threshold) + 0.03


def _with_secret_column() -> ProductDistribution:
    """96 uniform QI bits plus one raw sensitive column of 50 values.

    The standard k-anonymity setting: the anonymizer generalizes the
    quasi-identifiers and releases the sensitive value as is.
    """
    secret = Attribute("secret", CategoricalDomain(range(50)), AttributeKind.SENSITIVE)
    return ProductDistribution.uniform(Schema([*uniform_bits_schema(96).attributes, secret]))


def check_count_mechanism_pso_security(
    n: int = 200, trials: int = 150, rng: RngSeed = 0, jobs: int = 1
) -> TheoremCheck:
    """Theorems 2.5 and 2.6: M#q, and its post-processing, prevent PSO.

    Plays five games: the count mechanism against the trivial attacker at
    both weight presets and against the count-exploiting attacker, its
    parity post-processing ``f(M#q(x))`` against the trivial attacker, and
    the identity mechanism (a raw release) against a reader of the release.
    The four count games must stay at the secure ceiling; the identity
    game is the falsifiability control and must beat it, showing the game
    detects insecurity where it exists.
    """
    distribution = uniform_bits_distribution(64)
    count = CountMechanism(hash_bit_predicate("e9-q", 0))
    parity = PostProcessedMechanism(count, lambda c: c % 2, label="parity")
    games = [
        (count, TrivialAttacker("negligible")),
        (count, TrivialAttacker("optimal")),
        (count, CountExploitingAttacker("negligible")),
        (parity, TrivialAttacker("negligible")),
        (IdentityMechanism(), IdentityAttacker()),
    ]
    results = tuple(
        PSOGame(distribution, n, mechanism, adversary).run(
            trials, derive_rng(rng, "e9", mechanism.name, adversary.name), jobs=jobs
        )
        for mechanism, adversary in games
    )
    *counts, identity = results
    return TheoremCheck(
        theorem="2.5, 2.6",
        claim="M#q and its post-processing prevent predicate singling out",
        passed=all(r.success.estimate <= _secure_upper_bound(r) for r in counts)
        and identity.beats_baseline(),
        measurements={
            "n": n,
            "trials": trials,
            "worst_count_success": max(r.success.estimate for r in counts),
            "identity_success": identity.success.estimate,
        },
        results=results,
    )


def check_composition_attack(
    n: int = 256, trials: int = 80, rng: RngSeed = 0, jobs: int = 1
) -> TheoremCheck:
    """Theorem 2.8: omega(log n) count mechanisms compose to enable PSO.

    Runs the constructive attack of :func:`build_composition_suite` and
    requires its win rate to exceed the secure ceiling (which is ~n^-1
    here) significantly, with a lower confidence bound of at least 0.2 —
    the paper's incomposability phenomenon.
    """
    suite = build_composition_suite(n)
    game = PSOGame(uniform_bits_distribution(64), n, suite.mechanism, suite.adversary)
    result = game.run(trials, derive_rng(rng, "thm2.8"), jobs=jobs)
    return TheoremCheck(
        theorem="2.8",
        claim="composing omega(log n) count mechanisms fails to prevent PSO",
        passed=result.success.lower >= 0.2 and result.beats_baseline(),
        measurements={
            "n": n,
            "trials": trials,
            "num_count_mechanisms": suite.num_counts,
            "success": str(result.success),
            "weight_threshold": result.weight_threshold,
        },
        results=(result,),
    )


def check_dp_implies_pso_security(
    epsilon: float = 1.0, n: int = 256, trials: int = 80, rng: RngSeed = 0, jobs: int = 1
) -> TheoremCheck:
    """Theorem 2.9: an epsilon-DP mechanism prevents predicate singling out.

    The sharpest test available: re-run the Theorem 2.8 composition attack,
    but release every count through the Laplace mechanism with the total
    budget split across counts (so the composed release is epsilon-DP).
    The very attack that wins against exact counts must collapse.
    """
    suite = build_composition_suite(n)
    per_count_epsilon = epsilon / suite.num_counts
    dp_mechanism = ComposedMechanism(
        [
            DPCountMechanism(component.query, per_count_epsilon)
            for component in suite.mechanism.mechanisms
        ]
    )
    game = PSOGame(uniform_bits_distribution(64), n, dp_mechanism, suite.adversary)
    result = game.run(trials, derive_rng(rng, "thm2.9"), jobs=jobs)
    return TheoremCheck(
        theorem="2.9",
        claim="epsilon-DP implies security against predicate singling out",
        passed=result.success.estimate <= _secure_upper_bound(result),
        measurements={
            "n": n,
            "trials": trials,
            "epsilon_total": epsilon,
            "per_count_epsilon": per_count_epsilon,
            "success": str(result.success),
        },
        results=(result,),
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
    mechanism = KAnonymityMechanism(AgreementAnonymizer(k), label="agreement")
    game = PSOGame(
        uniform_bits_distribution(width), n, mechanism, KAnonymityPSOAttacker("refine")
    )
    result = game.run(trials, derive_rng(rng, "thm2.10"), jobs=jobs)
    expected = refinement_success_probability(k)
    return TheoremCheck(
        theorem="2.10",
        claim="k-anonymity enables predicate singling out w.p. ~37%",
        passed=result.beats_baseline()
        and abs(result.success.estimate - expected) <= 0.15,
        measurements={
            "k": k,
            "n": n,
            "trials": trials,
            "success": str(result.success),
            "expected_(1-1/k)^(k-1)": expected,
        },
        results=(result,),
    )


def check_cohen_singleton_attack(
    k: int = 4, n: int = 250, trials: int = 80, rng: RngSeed = 0, jobs: int = 1
) -> TheoremCheck:
    """Cohen [12]: generalization-based k-anonymity allows PSO w.p. ~100%.

    A standard k-anonymizer generalizes only the quasi-identifiers and
    releases the sensitive column raw; the full released rows then split
    each QI class into (mostly) singletons of negligible weight, and the
    attacker isolates without needing any refinement — success approaches
    100%, the strengthening of Theorem 2.10 cited in Section 2.3.4.
    """
    mechanism = KAnonymityMechanism(AgreementAnonymizer(k), label="agreement")
    game = PSOGame(_with_secret_column(), n, mechanism, KAnonymityPSOAttacker("singleton"))
    result = game.run(trials, derive_rng(rng, "cohen"), jobs=jobs)
    return TheoremCheck(
        theorem="2.10+ (Cohen [12])",
        claim="generalization-based k-anonymity allows PSO w.p. ~100%",
        passed=result.success.lower >= 0.8,
        measurements={
            "k": k,
            "n": n,
            "trials": trials,
            "success": str(result.success),
        },
        results=(result,),
    )


def check_ldiversity_fails_pso(
    k: int = 4,
    diversity: int = 2,
    n: int = 250,
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
    distribution = _with_secret_column()
    anonymizer = AgreementAnonymizer(k)
    adversary = KAnonymityPSOAttacker(mode="singleton")
    context = PSOContext(n=n, distribution=distribution)

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
        predicate = adversary.attack(release, context, adv_rng)
        if predicate is None:
            return True, False
        matches = data.count(predicate)
        weight = predicate.weight_bound(distribution)
        return True, matches == 1 and weight <= context.weight_threshold

    outcomes = parallel_map(
        footnote3_trial, spawn_rngs(derive_rng(rng, "footnote3"), trials), jobs=jobs
    )
    diverse_trials = sum(diverse for diverse, _won in outcomes)
    diverse_and_broken = sum(won for _diverse, won in outcomes)

    claim = "l-diverse k-anonymous releases remain PSO-vulnerable"
    if diverse_trials == 0:
        return TheoremCheck(
            theorem="footnote 3",
            claim=claim,
            passed=False,
            measurements={"note": "no trial produced an l-diverse release"},
        )
    success = estimate_proportion(diverse_and_broken, diverse_trials)
    return TheoremCheck(
        theorem="footnote 3",
        claim=claim,
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

    Empirical verification on :data:`NEIGHBOURING_INPUTS`.  The spec under
    test is the object an accountant would charge: kernel, sensitivity
    and claimed epsilon travel together.
    """
    x, x_prime = NEIGHBOURING_INPUTS
    verdict = verify_spec(
        LaplaceMechanism(epsilon).spec(),
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
        results=(verdict,),
    )
