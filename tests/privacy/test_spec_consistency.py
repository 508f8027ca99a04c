"""The MechanismSpec is one auditable identity across the whole stack.

The spec an answerer exposes must be the epsilon the server's accountant
charges, the kernel that actually samples, and the object the DP verifier
tests — these tests pin that three-way agreement.
"""

import numpy as np
import pytest

from repro.dp.laplace import LaplaceMechanism
from repro.dp.verify import verify_spec
from repro.privacy.kernels import MechanismSpec
from repro.queries.query import SubsetQuery
from repro.service import BasicAccountant, QueryServer
from repro.utils.rng import derive_rng


def _query(n, indices):
    mask = np.zeros(n, dtype=bool)
    mask[list(indices)] = True
    return SubsetQuery(mask)


class TestServerChargesTheSpec:
    def test_accountant_charge_equals_spec_epsilon(self):
        data = derive_rng(0, "spec-data").integers(0, 2, size=16)
        accountant = BasicAccountant()
        server = QueryServer(
            data,
            mechanism="laplace",
            mechanism_params={"epsilon_per_query": 0.4},
            accountant=accountant,
            seed=3,
        )
        session = server.session("alice")
        session.ask(_query(16, [0, 3, 5]))
        spec = server.mechanism_spec("alice")
        assert isinstance(spec, MechanismSpec)
        assert spec.dp
        assert accountant.analyst_epsilon("alice") == spec.spend.epsilon == 0.4

    def test_session_spec_property(self):
        data = derive_rng(0, "spec-data").integers(0, 2, size=16)
        server = QueryServer(data, mechanism="exact", seed=1)
        session = server.session("bob")
        assert session.spec.name == "exact"
        assert session.spec.spend.epsilon == 0.0
        assert not session.spec.dp

    def test_duck_typed_answerer_without_spec(self):
        class BareAnswerer:
            error_bound = 0.0
            epsilon_per_query = 0.9

            def __init__(self, data):
                self._data = np.asarray(data)

            def answer(self, query):
                return float(query.true_answer(self._data))

            def answer_workload(self, workload):
                return workload.true_answers(self._data, validate=False)

        data = derive_rng(0, "spec-data").integers(0, 2, size=16)
        server = QueryServer(data, mechanism=lambda d, rng, **p: BareAnswerer(d))
        session = server.session("carol")
        assert session.spec is None
        session.ask(_query(16, [1, 2]))
        # Fallback still reads the declared epsilon_per_query attribute.
        assert server.accountant.analyst_epsilon("carol") == pytest.approx(0.9)


class TestVerifierConsumesTheSpec:
    def test_verify_spec_accepts_mechanism_spec(self):
        spec = LaplaceMechanism(1.0).spec()
        x = np.array([1, 0, 1, 1, 0])
        x_prime = np.array([1, 0, 1, 0, 0])
        verdict = verify_spec(
            spec, x, x_prime, trials=400, rng=derive_rng(0, "spec-verify")
        )
        assert verdict.epsilon_claimed == spec.spend.epsilon

    def test_verify_spec_refuses_non_dp_specs(self):
        data = derive_rng(0, "spec-data").integers(0, 2, size=8)
        from repro.queries.mechanism import ExactAnswerer

        spec = ExactAnswerer(data).spec
        with pytest.raises(ValueError, match="makes no DP claim"):
            verify_spec(spec, np.array([1, 0]), np.array([1, 1]))
