"""Tests for release fingerprints and the content-addressed certificate."""

import dataclasses

import numpy as np
import pytest

from repro.anonymity import MondrianAnonymizer
from repro.compliance import (
    CompliancePipeline,
    DpClaimVerifier,
    ReconstructionResistanceVerifier,
    release_fingerprint,
    spec_fingerprint,
)
from repro.data.population import PopulationConfig, generate_population, gic_release
from repro.synth import BinaryRelease


@pytest.fixture(scope="module")
def microdata():
    population = generate_population(PopulationConfig(size=60, zip_count=5), rng=0)
    return gic_release(population)


class TestReleaseFingerprint:
    def test_spec_fingerprint_separates_dp_flag(self, laplace_spec):
        forged = dataclasses.replace(laplace_spec, dp=False)
        assert spec_fingerprint(laplace_spec) != spec_fingerprint(forged)

    def test_spec_fingerprint_stable(self, laplace_spec):
        assert spec_fingerprint(laplace_spec) == spec_fingerprint(laplace_spec)

    def test_binary_release_binds_vector_and_spec(self, dp_release):
        mutated = np.array(dp_release.vector)
        mutated[0] = 1 - mutated[0]
        other = BinaryRelease(vector=mutated, spec=dp_release.spec)
        assert release_fingerprint(other) != release_fingerprint(dp_release)

    def test_ndarray_dtype_and_shape_separate(self):
        flat = np.zeros(4, dtype=np.int64)
        assert release_fingerprint(flat) != release_fingerprint(
            flat.astype(np.float64)
        )
        assert release_fingerprint(flat) != release_fingerprint(
            flat.reshape(2, 2)
        )

    def test_dataset_and_generalized_dataset_supported(self, microdata):
        raw = release_fingerprint(microdata)
        anonymized = MondrianAnonymizer(k=5).anonymize(microdata)
        assert raw != release_fingerprint(anonymized)
        assert release_fingerprint(microdata) == raw

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            release_fingerprint(object())

    def test_mechanism_spec_dispatch_matches_spec_fingerprint(self, laplace_spec):
        assert release_fingerprint(laplace_spec) == spec_fingerprint(laplace_spec)


class TestComplianceCertificate:
    @pytest.fixture(scope="class")
    def certificate(self, secret, policy, dp_release):
        pipeline = CompliancePipeline(
            [DpClaimVerifier(), ReconstructionResistanceVerifier()],
            policy,
            seed=3,
        )
        return pipeline.certify(dp_release, data=secret, subject="unit-release")

    def test_fingerprint_is_content_address(self, certificate):
        assert certificate.fingerprint == certificate.content_fingerprint()
        assert len(certificate.fingerprint) == 32  # blake2b-128 hex

    def test_validate_accepts_certified_bits(self, certificate, dp_release):
        assert certificate.approved
        assert certificate.validate(dp_release)
        assert certificate.failing == ()

    def test_validate_rejects_mutated_release(self, certificate, dp_release):
        mutated = np.array(dp_release.vector)
        mutated[3] = 1 - mutated[3]
        forged = BinaryRelease(vector=mutated, spec=dp_release.spec)
        assert not certificate.binds(forged)
        assert not certificate.validate(forged)

    def test_field_tamper_detected(self, certificate, dp_release):
        tampered = dataclasses.replace(
            certificate, subject="renamed", fingerprint=certificate.fingerprint
        )
        assert tampered.tampered()
        assert not tampered.validate(dp_release)
        # An honest re-mint under the new subject is internally consistent
        # again (and gets a different address).
        honest = dataclasses.replace(certificate, subject="renamed", fingerprint="")
        assert not honest.tampered()
        assert honest.fingerprint != certificate.fingerprint

    def test_render_names_status_and_checks(self, certificate):
        transcript = certificate.render()
        assert "APPROVED" in transcript
        assert "DP-CLAIM" in transcript
        assert certificate.fingerprint in transcript

    def test_denial_certificate_never_validates(self, secret, policy, exact_spec):
        pipeline = CompliancePipeline([DpClaimVerifier()], policy, seed=3)
        denial = pipeline.certify(exact_spec, data=secret, subject="exact")
        assert not denial.approved
        assert denial.failing == ("DP-CLAIM",)
        assert not denial.tampered()  # the denial itself is well-formed
        assert not denial.validate(exact_spec)  # but approves nothing
        assert "DENIED" in denial.render()
