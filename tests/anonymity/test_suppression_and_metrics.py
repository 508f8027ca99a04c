"""Tests for the utility metrics, including their penalty for suppressed records."""

import pytest

from repro.anonymity.agreement import AgreementAnonymizer
from repro.anonymity.checks import equivalence_classes_on
from repro.anonymity.datafly import DataflyAnonymizer
from repro.anonymity.metrics import (
    average_class_size_ratio,
    discernibility_metric,
    generalization_precision,
    utility_report,
)
from repro.anonymity.mondrian import MondrianAnonymizer
from repro.data.dataset import Dataset
from repro.data.distributions import uniform_bits_distribution
from repro.data.domain import IntegerDomain
from repro.data.generalized import GeneralizedDataset
from repro.data.population import PopulationConfig, generate_population, gic_release
from repro.data.schema import Attribute, AttributeKind, Schema


@pytest.fixture(scope="module")
def release_input():
    population = generate_population(PopulationConfig(size=300, zip_count=15), rng=2)
    return gic_release(population)


class TestMetrics:
    def test_discernibility_sums_squares(self):
        data = uniform_bits_distribution(8).sample(40, rng=0)
        release = AgreementAnonymizer(4).anonymize(data)
        classes = equivalence_classes_on(release).values()
        assert discernibility_metric(release) == sum(len(rows) ** 2 for rows in classes)

    def test_discernibility_penalizes_suppression(self, release_input):
        release = DataflyAnonymizer(k=10, max_suppression=0.05).anonymize(release_input)
        assert release.suppressed_count > 0
        penalty = release.suppressed_count * len(release_input)
        classes = equivalence_classes_on(release).values()
        assert discernibility_metric(release) == sum(len(rows) ** 2 for rows in classes) + penalty

    def test_average_class_size_ratio(self):
        data = uniform_bits_distribution(8).sample(40, rng=1)
        release = AgreementAnonymizer(4).anonymize(data)
        # All groups exactly 4 -> ratio 1.0.
        assert average_class_size_ratio(release, 4) == pytest.approx(1.0)

    def test_precision_bounds(self, release_input):
        release = MondrianAnonymizer(k=5).anonymize(release_input)
        precision = generalization_precision(release)
        assert 0.0 < precision < 1.0

    def test_precision_zero_for_raw_release(self):
        schema = Schema(
            [Attribute("x", IntegerDomain(0, 3), AttributeKind.QUASI_IDENTIFIER)]
        )
        data = Dataset(schema, [(0,), (0,)])
        # The two records agree, so the agreement anonymizer releases them raw.
        release = AgreementAnonymizer(2).anonymize(data)
        assert generalization_precision(release) == 0.0

    def test_more_generalization_higher_precision_score(self, release_input):
        fine = MondrianAnonymizer(k=2).anonymize(release_input)
        coarse = MondrianAnonymizer(k=30).anonymize(release_input)
        assert generalization_precision(coarse) > generalization_precision(fine)

    def test_utility_report_keys(self, release_input):
        release = MondrianAnonymizer(k=5).anonymize(release_input)
        report = utility_report(release, 5)
        assert {"records", "suppressed", "classes", "discernibility",
                "avg_class_size_ratio", "precision"} <= set(report)

    def test_empty_release_rejected(self, release_input):
        empty = GeneralizedDataset(release_input.schema, [])
        with pytest.raises(ValueError):
            average_class_size_ratio(empty, 2)
        with pytest.raises(ValueError):
            generalization_precision(empty)
