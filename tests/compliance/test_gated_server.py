"""The gate on the live servers: refusals leave no footprint, approvals serve."""

import numpy as np
import pytest

from repro.compliance import (
    ComplianceDenied,
    ComplianceGate,
    CompliancePipeline,
    DpClaimVerifier,
    ReconstructionResistanceVerifier,
)
from repro.privacy.accounting import BasicAccountant, ShardedAccountant
from repro.queries.mechanism import LaplaceAnswerer
from repro.queries.workload import Workload
from repro.service.server import QueryServer, SyntheticFallback
from repro.service.sharded import ShardedQueryServer
from repro.synth import synthesize_binary
from repro.utils.rng import derive_rng

_EPSILON = 0.5


@pytest.fixture()
def gate(secret, policy):
    return ComplianceGate(policy)


def _approve_spec(gate, secret, policy):
    spec = LaplaceAnswerer(secret, _EPSILON).spec
    pipeline = CompliancePipeline([DpClaimVerifier()], policy, seed=2)
    certificate = pipeline.certify(spec, data=secret, subject="mechanism-spec")
    gate.approve(certificate, spec)
    return spec


class TestGatedQueryServer:
    def test_uncertified_spec_denied_with_zero_footprint(self, secret, gate):
        accountant = BasicAccountant()
        server = QueryServer(
            secret,
            "laplace",
            {"epsilon_per_query": _EPSILON},
            accountant=accountant,
            compliance=gate,
        )
        with pytest.raises(ComplianceDenied) as excinfo:
            server.session("alice")
        denied = excinfo.value
        assert denied.reason == "no-certificate"
        assert denied.subject == "mechanism-spec"
        assert denied.analyst == "alice"
        # Zero footprint: no analyst state, no budget, no cache, no answer
        # records — only the denial in its own audit channel.
        assert server.analysts == ()
        assert accountant.global_spent() == 0.0
        assert len(server.audit_log) == 0
        assert len(server.audit_log.denials) == 1
        assert server.audit_log.denials[0].reason == "no-certificate"

    def test_approved_spec_serves_and_logs_certificate(
        self, secret, gate, policy
    ):
        _approve_spec(gate, secret, policy)
        server = QueryServer(
            secret,
            "laplace",
            {"epsilon_per_query": _EPSILON},
            compliance=gate,
        )
        session = server.session("alice")
        query = Workload.random(secret.size, 1, rng=derive_rng(0, "q")).query(0)
        session.ask(query)
        assert len(server.audit_log) == 1
        certificates = server.audit_log.certificates
        assert len(certificates) == 1
        assert certificates[0].analyst == "alice"
        assert certificates[0].subject == "mechanism-spec"
        # Re-entering the session does not re-run the gate or re-log.
        server.session("alice")
        assert len(server.audit_log.certificates) == 1

    def test_ungated_server_unchanged(self, secret):
        server = QueryServer(secret, "laplace", {"epsilon_per_query": _EPSILON})
        assert server.session("alice") is not None
        assert len(server.audit_log.denials) == 0

    def test_answers_identical_with_and_without_gate(self, secret, gate, policy):
        _approve_spec(gate, secret, policy)
        gated = QueryServer(
            secret, "laplace", {"epsilon_per_query": _EPSILON},
            seed=9, compliance=gate,
        )
        plain = QueryServer(
            secret, "laplace", {"epsilon_per_query": _EPSILON}, seed=9
        )
        workload = Workload.random(secret.size, 5, rng=derive_rng(0, "w"))
        np.testing.assert_array_equal(
            gated.session("alice").ask_workload(workload),
            plain.session("alice").ask_workload(workload),
        )


class TestGatedFallback:
    def _server(self, secret, gate, fallback):
        return QueryServer(
            secret,
            "laplace",
            {"epsilon_per_query": _EPSILON},
            accountant=BasicAccountant(per_analyst_epsilon=_EPSILON),
            seed=4,
            synthetic_fallback=fallback,
            compliance=gate,
        )

    def _exhaust(self, server, secret):
        session = server.session("alice")
        workload = Workload.random(secret.size, 2, rng=derive_rng(1, "probe"))
        session.ask(workload.query(0))  # spends the whole per-analyst budget
        return session, workload.query(1)

    def test_uncertified_fallback_denied_and_refunded(
        self, secret, gate, policy
    ):
        _approve_spec(gate, secret, policy)
        fallback = SyntheticFallback(epsilon=_EPSILON, rounds=3)
        server = self._server(secret, gate, fallback)
        session, overflow = self._exhaust(server, secret)
        spend_before = server.accountant.global_spent()
        with pytest.raises(ComplianceDenied) as excinfo:
            session.ask(overflow)
        assert excinfo.value.subject == "synthetic-fallback"
        assert server.accountant.global_spent() == spend_before  # rolled back
        assert server.fallback_release is None  # nothing activated
        assert any(
            record.subject == "synthetic-fallback"
            for record in server.audit_log.denials
        )

    def test_certified_fallback_activates_with_exact_bits(
        self, secret, gate, policy
    ):
        _approve_spec(gate, secret, policy)
        fallback = SyntheticFallback(epsilon=_EPSILON, rounds=3)
        server = self._server(secret, gate, fallback)
        # Synthesis is seed-deterministic: certify the exact bits the
        # server will produce, out of band.
        expected = synthesize_binary(
            secret,
            fallback.epsilon,
            fallback.rounds,
            density=fallback.density,
            rng=derive_rng(4, "service", fallback.account),
        )
        pipeline = CompliancePipeline(
            [DpClaimVerifier(), ReconstructionResistanceVerifier()],
            policy,
            seed=2,
        )
        gate.approve(
            pipeline.certify(expected, data=secret, subject="synthetic-fallback"),
            expected,
        )
        session, overflow = self._exhaust(server, secret)
        answer = session.ask(overflow)
        assert server.fallback_release is not None
        assert answer == float(expected.answer(overflow.mask))
        assert any(
            record.subject == "synthetic-fallback"
            for record in server.audit_log.certificates
        )


class TestGatedShardedServer:
    def test_one_approval_admits_every_shard(self, secret, gate, policy):
        _approve_spec(gate, secret, policy)
        server = ShardedQueryServer(
            secret,
            "laplace",
            {"epsilon_per_query": _EPSILON},
            accountant=ShardedAccountant(shards=4),
            compliance=gate,
            shards=4,
        )
        workload = Workload.random(secret.size, 2, rng=derive_rng(2, "w"))
        for analyst in ("alice", "bob", "carol"):
            assert server.session(analyst).ask_workload(workload).shape == (2,)

    def test_uncertified_denied_on_every_shard(self, secret, gate):
        server = ShardedQueryServer(
            secret,
            "laplace",
            {"epsilon_per_query": _EPSILON},
            accountant=ShardedAccountant(shards=4),
            compliance=gate,
            shards=4,
        )
        for analyst in ("alice", "bob"):
            with pytest.raises(ComplianceDenied):
                server.session(analyst)
        assert server.accountant.global_spent() == 0.0
