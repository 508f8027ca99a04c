"""A GDPR singling-out audit: the paper's Section 2, as a pipeline.

The audit runs the theorem checks of ``repro.core.theorems``: each plays
the predicate-singling-out game against a candidate release mechanism with
its strongest known adversary.  It tabulates every game the checks played,
classifies each mechanism, and derives the legal conclusions the same
checks support — refusing to conclude anything a failed measurement cannot
back (the paper's falsifiability discipline).

Run:  python examples/gdpr_singling_out_audit.py
"""

from repro.core.theorems import (
    check_cohen_singleton_attack,
    check_composition_attack,
    check_count_mechanism_pso_security,
    check_dp_implies_pso_security,
    check_kanonymity_fails_pso,
    check_laplace_is_dp,
    check_ldiversity_fails_pso,
)
from repro.legal import (
    differential_privacy_assessment,
    legal_corollary_2_1,
    legal_theorem_2_1,
    working_party_comparison,
)
from repro.utils.tables import Table

N = 250
TRIALS = 50

# --- 1. the theorem checks: every game played once ----------------------------
print("Running the theorem checks (this takes a minute)...")
counts = check_count_mechanism_pso_security(n=N, trials=TRIALS)
composed = check_composition_attack(n=N, trials=TRIALS)
dp = check_dp_implies_pso_security(n=N, trials=30)
kanon = check_kanonymity_fails_pso(n=N, trials=TRIALS)
cohen = check_cohen_singleton_attack(n=N, trials=TRIALS)
ldiversity = check_ldiversity_fails_pso(n=N, trials=TRIALS)
laplace = check_laplace_is_dp()

# --- 2. the mechanism line-up, from the games the checks played ---------------
report = Table(
    ["mechanism", "adversary", "PSO success", "isolation", "verdict"],
    title=f"Singling-out audit (n={N})",
)
for check in (counts, composed, dp, kanon, cohen):
    for result in check.results:
        report.add_row(
            [
                result.mechanism_name,
                result.adversary_name,
                str(result.success),
                result.isolation_rate.estimate,
                "FAILS (singles out)"
                if result.beats_baseline()
                else "consistent with PSO security",
            ]
        )
print(report.render())
print()
for check in (counts, composed, dp, kanon, cohen, ldiversity, laplace):
    print(check)
    print("    " + ", ".join(f"{key}={value}" for key, value in check.measurements.items()))

# --- 3. the legal layer, fed by the same checks -------------------------------
theorem = legal_theorem_2_1(kanon, cohen, ldiversity)
print()
print(theorem.render())
print()
print(legal_corollary_2_1(theorem).render())
print()
print(differential_privacy_assessment(dp, laplace).render())
print()
print(working_party_comparison().render())
