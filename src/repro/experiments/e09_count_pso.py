"""E9 — Theorems 2.5 and 2.6: counts are PSO-secure, and stay so processed.

The counting mechanism ``M#q`` is *not* differentially private (it is
exact), yet it prevents predicate singling out; and post-processing its
output cannot break that.  The games are those of
:func:`~repro.core.theorems.check_count_mechanism_pso_security`: the
trivial attacker at each weight preset, contrasted with the identity
mechanism (raw-data release) where the game must report ~100% success —
demonstrating the game detects insecurity when it exists.
"""

from __future__ import annotations

from repro.core.theorems import check_count_mechanism_pso_security
from repro.experiments.runner import ExperimentResult, register
from repro.utils.tables import Table


@register("E9")
def run(seed: int = 0, quick: bool = False, jobs: int = 1) -> ExperimentResult:
    """PSO game outcomes for count mechanisms and their post-processings."""
    n = 200
    trials = 60 if quick else 250
    check = check_count_mechanism_pso_security(n, trials=trials, rng=seed, jobs=jobs)

    table = Table(
        ["mechanism", "adversary", "PSO success", "isolation rate", "weight-ok rate"],
        title=f"E9: PSO security of counts (n={n}, {trials} trials)",
    )
    for result in check.results:
        table.add_row(
            [
                result.mechanism_name,
                result.adversary_name,
                str(result.success),
                result.isolation_rate.estimate,
                result.negligible_weight_rate.estimate,
            ]
        )

    return ExperimentResult(
        experiment_id="E9",
        title="PSO security of the counting mechanism",
        paper_claim=(
            "M#q prevents predicate singling out (Theorem 2.5), and so does "
            "any post-processing f(M#q(x)) (Theorem 2.6), although M#q is not "
            "differentially private"
        ),
        tables=(table,),
        headline={
            "count_mechanisms_worst_success": check.measurements["worst_count_success"],
            "identity_mechanism_success": check.measurements["identity_success"],
        },
    )
