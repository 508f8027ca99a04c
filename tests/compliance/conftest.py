"""Shared fixtures for the release-approval subsystem tests."""

import pytest

from repro.compliance import Policy
from repro.queries.mechanism import ExactAnswerer, LaplaceAnswerer
from repro.synth import synthesize_binary
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def secret():
    return derive_rng(7, "compliance-tests").integers(0, 2, size=48)


@pytest.fixture(scope="module")
def laplace_spec(secret):
    return LaplaceAnswerer(secret, 0.5).spec


@pytest.fixture(scope="module")
def exact_spec(secret):
    return ExactAnswerer(secret).spec


@pytest.fixture(scope="module")
def policy():
    # Few DP trials: the verifier tests exercise wiring, not power.
    return Policy(name="test-policy", dp_trials=200)


@pytest.fixture(scope="module")
def dp_release(secret):
    return synthesize_binary(
        secret, 1.0, 5, rng=derive_rng(7, "compliance-tests", "release")
    )
