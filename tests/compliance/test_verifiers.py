"""Each verifier re-derives its requirement; pass and fail paths both."""

import dataclasses

import numpy as np
import pytest

from repro.anonymity import MondrianAnonymizer
from repro.compliance import (
    CompositionPolicyVerifier,
    DeletionVerifier,
    DpClaimVerifier,
    KAnonymityClaimVerifier,
    Policy,
    ReconstructionResistanceVerifier,
    ReleaseContext,
    SafeHarborVerifier,
)
from repro.data.population import PopulationConfig, generate_population, gic_release
from repro.lm.ngram import synthetic_corpus
from repro.privacy.accounting import PrivacyAccountant
from repro.privacy.kernels import PrivacySpend
from repro.synth import BinaryRelease
from repro.utils.rng import derive_rng


def _rng():
    return derive_rng(11, "verifier-tests")


class TestDpClaimVerifier:
    def test_consistent_spec_passes(self, secret, laplace_spec, policy):
        result = DpClaimVerifier().check(
            ReleaseContext(release=laplace_spec, data=secret), policy, _rng()
        )
        assert result.passed
        assert result.measurements["epsilon"] == 0.5
        assert result.measurements["trials"] == policy.dp_trials

    def test_non_dp_spec_fails_citing_theorem(self, secret, exact_spec, policy):
        result = DpClaimVerifier().check(
            ReleaseContext(release=exact_spec, data=secret), policy, _rng()
        )
        assert not result.passed
        assert "Legal Theorem 2.1" in result.detail

    def test_speccless_release_fails(self, secret, policy):
        result = DpClaimVerifier().check(
            ReleaseContext(release=np.zeros(4), data=secret), policy, _rng()
        )
        assert not result.passed

    def test_forged_epsilon_caught_empirically(self, secret, laplace_spec, policy):
        # Same Laplace kernel, but the spec now *claims* a 100x smaller
        # epsilon than the noise it actually adds.
        forged = dataclasses.replace(
            laplace_spec, spend=PrivacySpend(laplace_spec.spend.epsilon / 100)
        )
        result = DpClaimVerifier().check(
            ReleaseContext(release=forged, data=secret),
            Policy(dp_trials=800),
            _rng(),
        )
        assert not result.passed
        assert "exceeds" in result.detail

    def test_missing_data_fails(self, laplace_spec, policy):
        result = DpClaimVerifier().check(
            ReleaseContext(release=laplace_spec), policy, _rng()
        )
        assert not result.passed


class TestCompositionPolicyVerifier:
    def test_within_cap_passes(self, laplace_spec):
        accountant = PrivacyAccountant()
        accountant.reserve(2, 0.5)
        result = CompositionPolicyVerifier().check(
            ReleaseContext(release=laplace_spec, accountant=accountant),
            Policy(epsilon_cap=2.0),
            _rng(),
        )
        assert result.passed
        assert result.measurements["epsilon_total"] == pytest.approx(1.0)

    def test_over_cap_fails(self, laplace_spec):
        accountant = PrivacyAccountant()
        accountant.reserve(10, 0.5)
        result = CompositionPolicyVerifier().check(
            ReleaseContext(release=laplace_spec, accountant=accountant),
            Policy(epsilon_cap=2.0),
            _rng(),
        )
        assert not result.passed
        assert "exceeds" in result.detail

    def test_missing_ledger_fails(self, laplace_spec, policy):
        result = CompositionPolicyVerifier().check(
            ReleaseContext(release=laplace_spec), policy, _rng()
        )
        assert not result.passed


class TestMicrodataVerifiers:
    @pytest.fixture(scope="class")
    def microdata(self):
        population = generate_population(
            PopulationConfig(size=80, zip_count=5), rng=0
        )
        return gic_release(population)

    def test_safe_harbor_passes_when_identifiers_absent(self, microdata):
        policy = Policy(safe_harbor_classification={"name": "names"})
        result = SafeHarborVerifier().check(
            ReleaseContext(release=microdata), policy, _rng()
        )
        assert result.passed

    def test_safe_harbor_fails_on_surviving_identifier(self, microdata):
        # The GIC release keeps full zips; classified as fine-grained
        # geography they must be coarsened, so the raw release fails.
        policy = Policy(
            safe_harbor_classification={
                "zip": "geographic-subdivisions-smaller-than-state"
            }
        )
        result = SafeHarborVerifier().check(
            ReleaseContext(release=microdata), policy, _rng()
        )
        assert not result.passed

    def test_safe_harbor_needs_microdata(self, policy):
        result = SafeHarborVerifier().check(
            ReleaseContext(release=np.zeros(4)), policy, _rng()
        )
        assert not result.passed

    def test_kanonymity_rederives_k(self, microdata):
        release = MondrianAnonymizer(k=5).anonymize(microdata)
        verifier = KAnonymityClaimVerifier()
        passing = verifier.check(
            ReleaseContext(release=release), Policy(k_min=5), _rng()
        )
        assert passing.passed
        assert passing.measurements["achieved_k"] >= 5
        failing = verifier.check(
            ReleaseContext(release=release),
            Policy(k_min=passing.measurements["achieved_k"] + 1),
            _rng(),
        )
        assert not failing.passed
        assert "smallest equivalence class" in failing.detail

    def test_kanonymity_needs_generalized_release(self, microdata, policy):
        result = KAnonymityClaimVerifier().check(
            ReleaseContext(release=microdata), policy, _rng()
        )
        assert not result.passed


class TestReconstructionResistanceVerifier:
    def test_noisy_release_passes(self, secret, dp_release, policy):
        result = ReconstructionResistanceVerifier().check(
            ReleaseContext(release=dp_release, data=secret), policy, _rng()
        )
        assert result.passed
        assert result.measurements["agreement"] < 0.95

    def test_exact_copy_is_blatant_non_privacy(self, secret, dp_release, policy):
        leak = BinaryRelease(
            vector=np.array(secret, dtype=np.int64), spec=dp_release.spec
        )
        result = ReconstructionResistanceVerifier().check(
            ReleaseContext(release=leak, data=secret), policy, _rng()
        )
        assert not result.passed
        assert result.measurements["agreement"] == 1.0

    def test_vector_release_is_replayed(self, secret, policy):
        # A bare vector is answered by matrix product, then decoded by l2.
        leak = np.array(secret, dtype=np.float64)
        result = ReconstructionResistanceVerifier().check(
            ReleaseContext(release=leak, data=secret), policy, _rng()
        )
        assert not result.passed
        assert result.measurements["agreement"] == 1.0
        assert result.measurements["solver"] == "l2"

    def test_size_mismatch_fails(self, secret, policy):
        result = ReconstructionResistanceVerifier().check(
            ReleaseContext(release=np.zeros(secret.size + 1), data=secret),
            policy,
            _rng(),
        )
        assert not result.passed


class TestDeletionVerifier:
    def test_exact_unlearning_passes(self, dp_release, policy):
        corpus = synthetic_corpus(12, rng=0)
        result = DeletionVerifier(delete_index=3, order=4).check(
            ReleaseContext(release=dp_release, data=corpus), policy, _rng()
        )
        assert result.passed
        assert result.measurements["corpus_documents"] == 12

    def test_invalid_index_fails_not_raises(self, dp_release, policy):
        corpus = synthetic_corpus(5, rng=0)
        result = DeletionVerifier(delete_index=99).check(
            ReleaseContext(release=dp_release, data=corpus), policy, _rng()
        )
        assert not result.passed

    def test_non_corpus_data_fails(self, secret, dp_release, policy):
        result = DeletionVerifier().check(
            ReleaseContext(release=dp_release, data=secret), policy, _rng()
        )
        assert not result.passed
