"""Public names that only their own tests used are gone, and stay gone.

Each module, name, attribute and keyword below was run only by its own
tests, or repeated a job that live code does: the query cap is the
service accountant's ``max_queries_per_analyst``, a private count is
``LaplaceMechanism(epsilon).release(dataset.count(p))``, a release is
l-diverse when ``distinct_l_diversity(...) >= l``, k-anonymity is
:func:`repro.anonymity.checks.is_k_anonymous` on the quasi-identifiers,
and Datafly is the full-domain generalizer.  The accounting names live in
:mod:`repro.privacy.accounting` only, and its ledgers compose by one rule:
epsilons add.  Each Section 2 theorem has one check in
:mod:`repro.core.theorems` (Theorems 2.5 and 2.6 share one), and the
legal layer derives its verdicts from evidence it is given, never from a
default run of its own.
"""

import importlib
import importlib.util
import inspect

import pytest

from repro.anonymity.datafly import DataflyAnonymizer
from repro.core.theorems import (
    TheoremCheck,
    check_cohen_singleton_attack,
    check_composition_attack,
    check_count_mechanism_pso_security,
    check_dp_implies_pso_security,
    check_ldiversity_fails_pso,
)
from repro.legal.theorems import (
    differential_privacy_assessment,
    legal_corollary_2_1,
    legal_theorem_2_1,
)
from repro.privacy.accounting import PrivacyAccountant, ShardedAccountant

_EVIDENCE = TheoremCheck(theorem="x", claim="measured", passed=True)

REMOVED_MODULES = [
    "repro.dp.gaussian",
    "repro.dp.randomized_response",
    "repro.dp.sparse_vector",
    "repro.anonymity.incognito",
    "repro.anonymity.suppression",
]

REMOVED_NAMES = [
    ("repro.dp", "GaussianMechanism"),
    ("repro.dp", "RandomizedResponse"),
    ("repro.dp", "AboveThreshold"),
    ("repro.dp", "SparseVectorOutcome"),
    ("repro.dp", "sparse_count_queries"),
    ("repro.dp", "GeometricMechanism"),
    ("repro.dp", "private_count"),
    ("repro.dp", "BudgetExhausted"),
    ("repro.dp", "PrivacyAccountant"),
    ("repro.dp", "PrivacySpend"),
    ("repro.dp", "advanced_composition"),
    ("repro.dp", "basic_composition"),
    ("repro.dp.laplace", "GeometricMechanism"),
    ("repro.dp.laplace", "private_count"),
    ("repro.privacy", "RandomizedResponseKernel"),
    ("repro.privacy.kernels", "RandomizedResponseKernel"),
    ("repro.queries", "BudgetedAnswerer"),
    ("repro.queries", "QueryBudgetExceeded"),
    ("repro.queries.mechanism", "BudgetedAnswerer"),
    ("repro.queries.mechanism", "QueryBudgetExceeded"),
    ("repro.anonymity", "IncognitoAnonymizer"),
    ("repro.anonymity", "suppress_small_classes"),
    ("repro.anonymity", "is_l_diverse"),
    ("repro.anonymity", "is_t_close"),
    ("repro.anonymity.checks", "is_l_diverse"),
    ("repro.anonymity.checks", "is_t_close"),
    ("repro.anonymity.agreement", "estimate_agreement_attack_success"),
    ("repro.core", "matching_count"),
    ("repro.core.isolation", "matching_count"),
    ("repro.core.isolation", "matching_indices"),
    ("repro", "run_all_checks"),
    ("repro.privacy", "AdvancedAccountant"),
    ("repro.privacy", "ServiceAccountant"),
    ("repro.privacy", "basic_composition"),
    ("repro.privacy.accounting", "AdvancedAccountant"),
    ("repro.privacy.accounting", "ServiceAccountant"),
    ("repro.privacy.accounting", "SHARD_RULES"),
    ("repro.privacy.accounting", "basic_composition"),
    ("repro.service", "AdvancedAccountant"),
    ("repro.service", "ServiceAccountant"),
    ("repro.data", "ZipPrefixHierarchy"),
    ("repro.data", "TaxonomyHierarchy"),
    ("repro.data", "uniform_distribution"),
    ("repro.data", "bernoulli_distribution"),
    ("repro.data.hierarchy", "ZipPrefixHierarchy"),
    ("repro.data.hierarchy", "TaxonomyHierarchy"),
    ("repro.data.distributions", "uniform_distribution"),
    ("repro.data.distributions", "bernoulli_distribution"),
    ("repro.data.distributions", "bernoulli_schema"),
    ("repro.data.distributions", "categorical_uniform"),
    ("repro.queries", "all_subset_queries"),
    ("repro.queries", "random_subset_queries"),
    ("repro.queries.workload", "all_subset_queries"),
    ("repro.queries.workload", "random_subset_queries"),
    ("repro.queries.workload", "singleton_queries"),
    ("repro.core", "required_width_for_negligibility"),
    ("repro.core", "composition_attack_success_bound"),
    ("repro.core", "trivial_attacker_ceiling"),
    ("repro.core", "run_all_checks"),
    ("repro.core.analysis", "required_width_for_negligibility"),
    ("repro.core.analysis", "composition_attack_success_bound"),
    ("repro.core.analysis", "trivial_attacker_ceiling"),
    ("repro.core.theorems", "run_all_checks"),
    ("repro.core.predicate", "generalized_record_predicate"),
    ("repro.core.leftover_hash", "isolating_weight_predicate"),
    ("repro.attacks", "candidate_identities"),
    ("repro.attacks.fingerprint", "candidate_identities"),
    ("repro.attacks.uniqueness", "singled_out_count"),
    ("repro.compliance", "DeletionVerifier"),
    ("repro.compliance.verifiers", "DeletionVerifier"),
    ("repro.utils", "empirical_cdf"),
    ("repro.utils", "format_table"),
    ("repro.utils.stats", "empirical_cdf"),
    ("repro.utils.tables", "format_table"),
    ("repro.utils.negligible", "is_negligible_weight"),
    ("repro.experiments", "run_all_experiments"),
    ("repro.experiments.runner", "run_all_experiments"),
    ("repro.core", "check_post_processing_robustness"),
    ("repro.core.theorems", "check_post_processing_robustness"),
    ("repro.queries.workload", "MAX_EXHAUSTIVE_N"),
]

REMOVED_ATTRIBUTES = [
    ("repro.privacy.accounting", "PrivacyAccountant", "composed_epsilon"),
    ("repro.privacy.accounting", "PrivacyAccountant", "_composed"),
    ("repro.privacy.accounting", "PrivacyAccountant", "spends"),
    ("repro.privacy.accounting", "PrivacyAccountant", "spend"),
    ("repro.privacy.accounting", "PrivacyAccountant", "advanced_total"),
    ("repro.privacy.accounting", "PrivacyAccountant", "remaining_epsilon"),
    ("repro.privacy.accounting", "BasicAccountant", "remaining_epsilon"),
    ("repro.privacy.accounting", "ShardedAccountant", "remaining_epsilon"),
    ("repro.privacy.accounting", "ShardedAccountant", "shard_ledger"),
    ("repro.dp.laplace", "LaplaceMechanism", "release_many"),
    ("repro.dp.laplace", "LaplaceMechanism", "expected_absolute_error"),
    ("repro.dp.laplace", "LaplaceMechanism", "error_quantile"),
    ("repro.data.dataset", "Dataset", "replace_records"),
    ("repro.data.generalized", "GeneralizedDataset", "is_k_anonymous"),
    ("repro.data.generalized", "GeneralizedDataset", "smallest_class_size"),
    ("repro.data.generalized", "GeneralizedDataset", "class_sizes"),
    ("repro.attacks.graph", "GraphAttackResult", "recovery_rate"),
    ("repro.reconstruction.tabulation", "BlockTables", "race_counts"),
    ("repro.reconstruction.sharding", "ShardedReconstructionResult", "escalated_blocks"),
    ("repro.lm.ngram", "NgramLanguageModel", "documents_seen"),
    ("repro.queries.workload", "Workload", "all_subsets"),
    ("repro.queries.query", "SubsetQuery", "from_indices"),
    ("repro.data.dataset", "Dataset", "from_dicts"),
    ("repro.data.dataset", "Dataset", "filter"),
    ("repro.data.dataset", "Dataset", "value_counts"),
    ("repro.data.dataset", "Dataset", "head"),
    ("repro.data.dataset", "Record", "as_dict"),
    ("repro.data.distributions", "ProductDistribution", "sample_record"),
    ("repro.data.schema", "Schema", "record_domain"),
    ("repro.compliance.gate", "ComplianceGate", "revoke"),
    ("repro.compliance.gate", "ComplianceGate", "is_approved"),
    ("repro.compliance.gate", "ComplianceGate", "certificate_for"),
]

REMOVED_KEYWORDS = {
    "ShardedAccountant-rule": lambda: ShardedAccountant(rule="basic"),
    "ShardedAccountant-delta_prime": lambda: ShardedAccountant(delta_prime=1e-6),
    "PrivacyAccountant-composition": lambda: PrivacyAccountant(composition=None),
    "PrivacyAccountant-record_entries": lambda: PrivacyAccountant(record_entries=False),
    "reserve-label": lambda: PrivacyAccountant().reserve(1, 0.1, label="q"),
    "DataflyAnonymizer-hierarchies": lambda: DataflyAnonymizer(5, hierarchies={}),
    "check_composition_attack-min_success": lambda: check_composition_attack(
        min_success=0.2
    ),
    "check_count_mechanism_pso_security-width": lambda: check_count_mechanism_pso_security(
        width=64
    ),
    "check_composition_attack-width": lambda: check_composition_attack(width=64),
    "check_dp_implies_pso_security-width": lambda: check_dp_implies_pso_security(width=64),
    "check_cohen_singleton_attack-width": lambda: check_cohen_singleton_attack(width=96),
    "check_cohen_singleton_attack-secret_values": lambda: check_cohen_singleton_attack(
        secret_values=50
    ),
    "check_ldiversity_fails_pso-width": lambda: check_ldiversity_fails_pso(width=96),
    "check_ldiversity_fails_pso-secret_values": lambda: check_ldiversity_fails_pso(
        secret_values=50
    ),
    "legal_theorem_2_1-rng": lambda: legal_theorem_2_1(
        _EVIDENCE, _EVIDENCE, _EVIDENCE, rng=0
    ),
    "legal_corollary_2_1-rng": lambda: legal_corollary_2_1(
        legal_theorem_2_1(_EVIDENCE, _EVIDENCE, _EVIDENCE), rng=0
    ),
    "differential_privacy_assessment-rng": lambda: differential_privacy_assessment(
        _EVIDENCE, _EVIDENCE, rng=0
    ),
}


@pytest.mark.parametrize("module", REMOVED_MODULES)
def test_removed_module_is_gone(module):
    assert importlib.util.find_spec(module) is None


@pytest.mark.parametrize(
    "module, name", REMOVED_NAMES, ids=[f"{m}.{n}" for m, n in REMOVED_NAMES]
)
def test_removed_name_is_gone(module, name):
    imported = importlib.import_module(module)
    assert not hasattr(imported, name)
    assert name not in getattr(imported, "__all__", ())


@pytest.mark.parametrize(
    "module, owner, name",
    REMOVED_ATTRIBUTES,
    ids=[f"{o}.{n}" for _m, o, n in REMOVED_ATTRIBUTES],
)
def test_removed_attribute_is_gone(module, owner, name):
    assert not hasattr(getattr(importlib.import_module(module), owner), name)


@pytest.mark.parametrize("build", REMOVED_KEYWORDS.values(), ids=REMOVED_KEYWORDS.keys())
def test_removed_keyword_is_refused(build):
    with pytest.raises(TypeError):
        build()


def test_ldiversity_check_takes_diversity():
    parameters = inspect.signature(check_ldiversity_fails_pso).parameters
    assert "diversity" in parameters
    assert "l" not in parameters


@pytest.mark.parametrize(
    "derivation",
    [legal_theorem_2_1, legal_corollary_2_1, differential_privacy_assessment],
)
def test_legal_derivations_need_their_evidence(derivation):
    parameters = inspect.signature(derivation).parameters.values()
    assert all(p.default is inspect.Parameter.empty for p in parameters)
