"""E11 — Theorems 1.3 and 2.9: differential privacy prevents PSO.

Two measurements:

1. **Theorem 1.3** — the Laplace mechanism's output-probability ratios on
   neighboring datasets stay within ``e^eps`` (empirical DP verification,
   with a deliberately broken mechanism as the falsifiability control).
2. **Theorem 2.9** — the strongest attack we have (the Theorem 2.8
   composition attack, which wins ~70% against exact counts) collapses when
   the same counts are released with a total epsilon of differential
   privacy.  Epsilon is swept to show the attack stays dead even at
   generous budgets.
"""

from __future__ import annotations

import numpy as np

from repro.core.theorems import (
    NEIGHBOURING_INPUTS,
    check_composition_attack,
    check_dp_implies_pso_security,
    check_laplace_is_dp,
)
from repro.dp.verify import verify_dp
from repro.experiments.runner import ExperimentResult, register
from repro.utils.rng import derive_rng
from repro.utils.tables import Table


@register("E11")
def run(seed: int = 0, quick: bool = False, jobs: int = 1) -> ExperimentResult:
    """Empirical DP verification plus the PSO game under DP releases."""
    verify_trials = 1_500 if quick else 6_000

    dp_table = Table(
        ["mechanism", "claimed eps", "max |log ratio|", "verdict"],
        title="E11a: empirical DP verification (Theorem 1.3)",
    )
    for epsilon in (0.5, 1.0, 2.0):
        check = check_laplace_is_dp(
            epsilon, verify_trials, rng=derive_rng(seed, "e11-verify", epsilon)
        )
        (verdict,) = check.results
        dp_table.add_row(
            [
                f"Laplace(eps={epsilon})",
                epsilon,
                verdict.max_observed_log_ratio,
                "consistent" if verdict.consistent else "VIOLATION",
            ]
        )
    # Falsifiability control: the exact count must be flagged.
    broken = verify_dp(
        lambda data, rng: float(np.sum(data)),
        *NEIGHBOURING_INPUTS,
        epsilon=1.0,
        trials=verify_trials,
        rng=derive_rng(seed, "e11-broken"),
    )
    dp_table.add_row(
        ["exact count (control)", 1.0, broken.max_observed_log_ratio,
         "consistent" if broken.consistent else "VIOLATION"]
    )

    n = 256
    trials = 25 if quick else 60
    exact = check_composition_attack(
        n, trials=trials, rng=derive_rng(seed, "e11-exact"), jobs=jobs
    )
    (exact_result,) = exact.results

    pso_table = Table(
        ["release of the l counts", "total eps", "PSO success", "isolation rate"],
        title=f"E11b: the Theorem 2.8 attack vs DP releases (n={n}, "
        f"l={exact.measurements['num_count_mechanisms']})",
    )
    pso_table.add_row(
        ["exact (no privacy)", "inf", str(exact_result.success),
         exact_result.isolation_rate.estimate]
    )
    dp_success = {}
    for total_epsilon in (0.5, 2.0, 8.0):
        check = check_dp_implies_pso_security(
            total_epsilon,
            n,
            trials=trials,
            rng=derive_rng(seed, "e11-dp", total_epsilon),
            jobs=jobs,
        )
        (result,) = check.results
        pso_table.add_row(
            [
                "Laplace, eps/l each",
                total_epsilon,
                str(result.success),
                result.isolation_rate.estimate,
            ]
        )
        dp_success[total_epsilon] = result.success.estimate

    return ExperimentResult(
        experiment_id="E11",
        title="Differential privacy prevents predicate singling out",
        paper_claim=(
            "the Laplace mechanism is eps-DP (Theorem 1.3), and eps-DP "
            "mechanisms prevent predicate singling out (Theorem 2.9)"
        ),
        tables=(dp_table, pso_table),
        headline={
            "attack_success_exact_counts": exact_result.success.estimate,
            "attack_success_dp_eps2": dp_success.get(2.0, 0.0),
        },
    )
