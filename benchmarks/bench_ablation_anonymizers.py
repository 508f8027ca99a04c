"""Ablation: anonymizer choice — utility vs singling-out vulnerability.

DESIGN.md's Theorem 2.10 discussion claims a causal chain: better utility
(tighter classes) -> lower class-predicate weight -> predicate singling
out.  This bench puts every anonymizer in the library on the same data and
reports both sides of the chain: utility metrics and the Cohen singleton
attack's success.
"""

import pytest

from repro.anonymity import (
    AgreementAnonymizer,
    DataflyAnonymizer,
    MondrianAnonymizer,
)
from repro.anonymity.metrics import discernibility_metric, generalization_precision
from repro.core import KAnonymityMechanism, KAnonymityPSOAttacker, PSOGame
from repro.data.distributions import ProductDistribution, uniform_bits_schema
from repro.data.domain import CategoricalDomain
from repro.data.schema import Attribute, AttributeKind, Schema
from repro.utils.rng import derive_rng
from repro.utils.tables import Table

K = 4
N = 200
TRIALS = 25


def _world():
    bits = uniform_bits_schema(64)
    schema = Schema(
        list(bits.attributes)
        + [Attribute("secret", CategoricalDomain(range(40)), AttributeKind.SENSITIVE)]
    )
    return ProductDistribution.uniform(schema)


def _evaluate():
    distribution = _world()
    sample = distribution.sample(N, derive_rng(0, "ablation-anon"))
    anonymizers = [
        ("agreement (sorted)", AgreementAnonymizer(K, strategy="sorted")),
        ("agreement (sequential)", AgreementAnonymizer(K, strategy="sequential")),
        ("mondrian", MondrianAnonymizer(K)),
        ("mondrian l-diverse", MondrianAnonymizer(K, l_diversity=(2, "secret"))),
        ("datafly", DataflyAnonymizer(K)),
    ]
    table = Table(
        ["anonymizer", "discernibility", "precision", "PSO success (auto attacker)"],
        title=f"Ablation: anonymizers at k={K}, n={N}",
    )
    rows = {}
    for label, anonymizer in anonymizers:
        release = anonymizer.anonymize(sample)
        game = PSOGame(
            distribution,
            N,
            KAnonymityMechanism(anonymizer, label=label),
            KAnonymityPSOAttacker("auto"),
        )
        result = game.run(TRIALS, derive_rng(0, "ablation-anon", label))
        table.add_row(
            [
                label,
                discernibility_metric(release),
                generalization_precision(release),
                str(result.success),
            ]
        )
        rows[label] = result.success.estimate
    return table, rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_anonymizers(benchmark):
    table, rows = benchmark.pedantic(_evaluate, rounds=1, iterations=1)
    print()
    print(table.render())
    # The information-optimizing anonymizers that keep the sensitive column
    # raw must be broken; the sorted agreement variant (highest utility)
    # among them.
    assert rows["agreement (sorted)"] >= 0.8
