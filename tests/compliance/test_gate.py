"""Gate tests: O(1) approvals, typed refusals for every failure mode."""

import dataclasses

import numpy as np
import pytest

from repro.compliance import (
    ComplianceDenied,
    ComplianceGate,
    CompliancePipeline,
    DpClaimVerifier,
    Policy,
)
from repro.synth import BinaryRelease


@pytest.fixture()
def approval(secret, policy, laplace_spec):
    pipeline = CompliancePipeline([DpClaimVerifier()], policy, seed=1)
    return pipeline.certify(laplace_spec, data=secret, subject="mechanism-spec")


@pytest.fixture()
def denial(secret, policy, exact_spec):
    pipeline = CompliancePipeline([DpClaimVerifier()], policy, seed=1)
    return pipeline.certify(exact_spec, data=secret, subject="mechanism-spec")


class TestApproveAndRequire:
    def test_roundtrip(self, approval, laplace_spec):
        gate = ComplianceGate()
        fingerprint = gate.approve(approval, laplace_spec)
        assert fingerprint == approval.release_fingerprint
        assert gate.require(laplace_spec) is approval
        assert gate.approved_count == 1

    def test_unapproved_release_refused(self, laplace_spec):
        gate = ComplianceGate()
        with pytest.raises(ComplianceDenied) as excinfo:
            gate.require(laplace_spec, subject="mechanism-spec", analyst="eve")
        assert excinfo.value.reason == "no-certificate"
        assert excinfo.value.subject == "mechanism-spec"
        assert excinfo.value.analyst == "eve"

    def test_none_release_refused(self):
        gate = ComplianceGate()
        with pytest.raises(ComplianceDenied) as excinfo:
            gate.require(None, subject="mechanism-spec")
        assert excinfo.value.reason == "unspecified-release"


class TestApproveRefusals:
    def test_denial_certificate_refused(self, denial, exact_spec):
        gate = ComplianceGate()
        with pytest.raises(ComplianceDenied) as excinfo:
            gate.approve(denial, exact_spec)
        assert excinfo.value.reason == "denied-certificate"
        assert excinfo.value.failing == ("DP-CLAIM",)
        assert gate.approved_count == 0

    def test_policy_mismatch_refused(self, approval, laplace_spec):
        gate = ComplianceGate(Policy(name="stricter", epsilon_cap=0.1))
        with pytest.raises(ComplianceDenied) as excinfo:
            gate.approve(approval, laplace_spec)
        assert excinfo.value.reason == "policy-mismatch"

    def test_matching_policy_accepted(self, approval, laplace_spec, policy):
        gate = ComplianceGate(policy)
        assert gate.approve(approval, laplace_spec)

    def test_tampered_certificate_refused(self, approval, laplace_spec):
        tampered = dataclasses.replace(
            approval, approved=True, seed=approval.seed + 1,
            fingerprint=approval.fingerprint,
        )
        gate = ComplianceGate()
        with pytest.raises(ComplianceDenied) as excinfo:
            gate.approve(tampered, laplace_spec)
        assert excinfo.value.reason == "fingerprint-mismatch"

    def test_wrong_release_bits_refused(self, secret, policy, dp_release):
        pipeline = CompliancePipeline([DpClaimVerifier()], policy, seed=1)
        certificate = pipeline.certify(dp_release, data=secret)
        mutated = np.array(dp_release.vector)
        mutated[0] = 1 - mutated[0]
        forged = BinaryRelease(vector=mutated, spec=dp_release.spec)
        gate = ComplianceGate()
        with pytest.raises(ComplianceDenied) as excinfo:
            gate.approve(certificate, forged)
        assert excinfo.value.reason == "fingerprint-mismatch"

    def test_repr_names_policy(self, policy):
        assert "test-policy" in repr(ComplianceGate(policy))
