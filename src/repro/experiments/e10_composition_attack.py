"""E10 — Theorem 2.8: PSO security does not compose.

Each counting mechanism is individually PSO-secure (E9), yet the
composition of ``omega(log n)`` of them releases enough bits to isolate a
record with a negligible-weight predicate.  We run the constructive attack
of :func:`~repro.core.theorems.check_composition_attack` across dataset
sizes and report its win rate against the "secure ceiling" (the best any
weight-compliant attacker could do without looking at the output).
"""

from __future__ import annotations

from repro.core.theorems import check_composition_attack
from repro.experiments.runner import ExperimentResult, register
from repro.utils.rng import derive_rng
from repro.utils.tables import Table


@register("E10")
def run(seed: int = 0, quick: bool = False, jobs: int = 1) -> ExperimentResult:
    """Composition-attack success vs dataset size."""
    sizes = [128] if quick else [128, 256, 512]
    trials = 25 if quick else 60

    table = Table(
        [
            "n",
            "count mechanisms (l)",
            "PSO success",
            "isolation rate",
            "secure ceiling n^-1",
        ],
        title="E10: composing PSO-secure count mechanisms (Theorem 2.8)",
    )
    worst_success = 1.0
    for n in sizes:
        check = check_composition_attack(
            n, trials=trials, rng=derive_rng(seed, "e10", n), jobs=jobs
        )
        (result,) = check.results
        table.add_row(
            [
                n,
                check.measurements["num_count_mechanisms"],
                str(result.success),
                result.isolation_rate.estimate,
                min(1.0, n * result.weight_threshold),
            ]
        )
        worst_success = min(worst_success, result.success.estimate)

    return ExperimentResult(
        experiment_id="E10",
        title="Incomposability of PSO security",
        paper_claim=(
            "there exist omega(log n) count mechanisms whose composition does "
            "not prevent predicate singling out (Theorem 2.8): the counts leak "
            "enough bits of one record to isolate it"
        ),
        tables=(table,),
        headline={"min_success_across_sizes": worst_success},
    )
