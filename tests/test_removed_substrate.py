"""One implementation per job in the DP and k-anonymity substrates.

Each module and name below was run only by its own tests, or repeated a
job that live code does: the query cap is the service accountant's
``max_queries_per_analyst``, a private count is
``LaplaceMechanism(epsilon).release(dataset.count(p))``, a release is
l-diverse when ``distinct_l_diversity(...) >= l``, and Datafly is the
full-domain generalizer.  The accounting names live in
:mod:`repro.privacy.accounting` only.
"""

import importlib
import importlib.util
import inspect

import pytest

from repro.core.theorems import check_ldiversity_fails_pso

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
]


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


def test_ldiversity_check_takes_diversity():
    parameters = inspect.signature(check_ldiversity_fails_pso).parameters
    assert "diversity" in parameters
    assert "l" not in parameters
