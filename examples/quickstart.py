"""Quickstart: the paper's core result in ~60 lines.

Builds a wide synthetic dataset, k-anonymizes it with an
information-optimizing anonymizer, verifies the release *is* k-anonymous,
then runs the paper's predicate-singling-out game against it — and against
a differentially private release of the same statistics — and finally
derives the legal conclusions.

Run:  python examples/quickstart.py
"""

from repro.anonymity import AgreementAnonymizer, is_k_anonymous
from repro.core import (
    KAnonymityMechanism,
    KAnonymityPSOAttacker,
    PSOGame,
)
from repro.core.attackers import build_composition_suite
from repro.core.mechanisms import ComposedMechanism, DPCountMechanism
from repro.core.theorems import TheoremCheck
from repro.data.distributions import uniform_bits_distribution
from repro.legal import legal_corollary_2_1, legal_theorem_2_1, working_party_comparison

N = 250  # dataset size
K = 4  # anonymity parameter
TRIALS = 60

distribution = uniform_bits_distribution(128)

# --- 1. k-anonymity: syntactically fine... -----------------------------------
data = distribution.sample(N, rng=0)
release = AgreementAnonymizer(K).anonymize(data)
print(f"release is {K}-anonymous: {is_k_anonymous(release, K)}")

# --- 2. ...but fails predicate singling out (Theorem 2.10) -------------------
game = PSOGame(
    distribution,
    N,
    KAnonymityMechanism(AgreementAnonymizer(K), label="agreement"),
    KAnonymityPSOAttacker(mode="refine"),
)
kanon_result = game.run(TRIALS, rng=1)
expected = (1 - 1 / K) ** (K - 1)
print(f"\nPSO attack on k-anonymity: success {kanon_result.success}")
print(f"paper's prediction (1-1/k)^(k-1) = {expected:.3f} (~37% for large k)")

# --- 3. differential privacy prevents the attack (Theorem 2.9) ---------------
suite = build_composition_suite(N)
per_count = 1.0 / suite.num_counts  # total budget eps = 1 split across counts
dp_mechanism = ComposedMechanism(
    [DPCountMechanism(m.query, per_count) for m in suite.mechanism.mechanisms]
)
exact_result = PSOGame(distribution, N, suite.mechanism, suite.adversary).run(
    TRIALS // 2, rng=2
)
dp_result = PSOGame(distribution, N, dp_mechanism, suite.adversary).run(
    TRIALS // 2, rng=3
)
print(f"\ncomposition attack vs exact counts: success {exact_result.success}")
print(f"same attack vs eps=1 DP counts:     success {dp_result.success}")

# --- 4. from measurements to legal theorems (Section 2.4) --------------------
evidence = TheoremCheck(
    theorem="2.10",
    claim="k-anonymity fails PSO (measured above)",
    passed=kanon_result.success.estimate > 0.2,
    measurements={"success": str(kanon_result.success)},
)
verdict = legal_theorem_2_1(evidence, evidence)
print()
print(verdict.render())
print()
print(legal_corollary_2_1(verdict).claim.conclusion)
print()
print(working_party_comparison().render())
