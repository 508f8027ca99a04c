"""E8 — the trivial attacker's ~37% (the paper's birthday example).

Section 2.2 computes that a data-independent predicate of weight ``1/n``
isolates with probability ``n * (1/n) * (1 - 1/n)^(n-1) ~ 37%`` — the
paper's own worked example uses n = 365 uniform birthdays and gets ~37%.
We replay exactly that example (a fixed-date predicate on birthdays),
generalize it to hash predicates of swept weight, and overlay the
closed-form curve ``n*w*(1-w)^(n-1)``.
"""

from __future__ import annotations

from repro.core.isolation import estimate_isolation_rate, isolates, isolation_probability
from repro.core.leftover_hash import hash_threshold_predicate
from repro.core.predicate import attribute_predicate
from repro.data.distributions import AttributeDistribution, ProductDistribution
from repro.data.domain import IntegerDomain
from repro.data.schema import Attribute, AttributeKind, Schema
from repro.experiments.runner import ExperimentResult, register
from repro.utils.parallel import parallel_map
from repro.utils.rng import derive_rng, spawn_rngs
from repro.utils.stats import estimate_proportion
from repro.utils.tables import Table


def _birthday_distribution() -> ProductDistribution:
    """The paper's example: uniform birthdays over 365 days."""
    schema = Schema(
        [Attribute("birthday", IntegerDomain(1, 365), AttributeKind.QUASI_IDENTIFIER)]
    )
    return ProductDistribution(
        schema, {"birthday": AttributeDistribution.uniform(schema.attribute("birthday").domain)}
    )


@register("E8")
def run(seed: int = 0, quick: bool = False, jobs: int = 1) -> ExperimentResult:
    """Measured vs closed-form isolation probability of trivial predicates."""
    n = 365
    trials = 400 if quick else 2_000
    distribution = _birthday_distribution()

    # (a) The literal birthday example: the fixed predicate "born Apr-30"
    # (day-of-year 120), exactly as in the paper.
    fixed_predicate = attribute_predicate("birthday", 120)
    fixed_estimate = estimate_isolation_rate(
        fixed_predicate, distribution, n, trials, rng=derive_rng(seed, "e8-fixed"), jobs=jobs
    )

    table = Table(
        ["predicate", "weight w", "measured isolation", "theory n*w*(1-w)^(n-1)"],
        title=f"E8: trivial-attacker isolation (n={n} uniform birthdays)",
    )
    table.add_row(
        [
            "birthday = Apr-30",
            f"{1/365:.5f}",
            str(fixed_estimate),
            isolation_probability(n, 1.0 / 365.0),
        ]
    )

    # (b) Hash predicates across the weight axis (the LHL generalization).
    # On a 365-value domain the *realized* weight of a hash cut fluctuates
    # around the analytic threshold (the domain has only ~8.5 bits of
    # min-entropy, so the Leftover-Hash-Lemma concentration is loose); the
    # honest theory column therefore averages n*w*(1-w)^(n-1) over each
    # salt's realized weight, computed exactly by domain enumeration.
    from repro.data.dataset import Dataset as _Dataset

    schema = distribution.schema
    domain_values = list(schema.attribute("birthday").domain)
    domain_dataset = _Dataset(schema, [(v,) for v in domain_values], validate=False)
    for multiplier in (0.1, 0.5, 1.0, 2.0, 5.0):
        weight = multiplier / n

        def hash_trial(item, multiplier=multiplier, weight=weight) -> tuple[float, int]:
            index, rng = item
            predicate = hash_threshold_predicate(f"e8-{multiplier}-{index}", weight)
            realized = domain_dataset.count(predicate) / len(domain_values)
            data = distribution.sample(n, rng)
            return isolation_probability(n, realized), int(isolates(predicate, data))

        streams = enumerate(spawn_rngs(derive_rng(seed, "e8", multiplier), trials))
        outcomes = parallel_map(hash_trial, list(streams), jobs=jobs)
        theory_terms = [theory for theory, _success in outcomes]
        successes = sum(success for _theory, success in outcomes)
        estimate = estimate_proportion(successes, trials)
        mean_theory = sum(theory_terms) / len(theory_terms)
        table.add_row(
            [
                f"hash cut, w = {multiplier}/n",
                f"{weight:.5f}",
                str(estimate),
                mean_theory,
            ]
        )

    # Figure: the n*w*(1-w)^(n-1) bell, theory curve with measured overlay.
    from repro.utils.plots import ascii_overlay

    weight_grid = [multiplier / n for multiplier in (0.1, 0.5, 1.0, 2.0, 5.0)]
    # Both curves come from the table's hash-cut rows, so theory is evaluated
    # at each salt's realized weight (see comment above) and overlays cleanly.
    theory_curve = [float(row[3]) for row in table.rows[1:]]
    measured_curve = [float(row[2].split(" ")[0]) for row in table.rows[1:]]
    figure = ascii_overlay(
        [w * n for w in weight_grid],
        [
            ("theory n*w*(1-w)^(n-1)", theory_curve, "o"),
            ("measured", measured_curve, "*"),
        ],
        title="Figure E8: isolation probability vs weight (x = w*n)",
    )

    return ExperimentResult(
        experiment_id="E8",
        title="Data-independent isolation baseline (~37%)",
        paper_claim=(
            "a fixed birthday predicate isolates among 365 uniform birthdays "
            "with probability ~37%; in general a weight-w predicate isolates "
            "w.p. n*w*(1-w)^(n-1), maximized at w = 1/n"
        ),
        tables=(table,),
        figures=(figure,),
        headline={"measured_isolation_at_w_1_over_n": fixed_estimate.estimate},
    )
