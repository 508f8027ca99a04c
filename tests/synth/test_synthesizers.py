"""The three generators: determinism, specs, and the accountant discipline."""

import pathlib

import numpy as np
import pytest

import repro.synth
from repro.data.censusblocks import CensusConfig, generate_census
from repro.privacy.accounting import BudgetExhausted, PrivacyAccountant
from repro.queries.workload import Workload
from repro.synth import (
    CellDomain,
    HierarchicalSynthesizer,
    IndependentSynthesizer,
    MWEMSynthesizer,
)
from repro.synth.base import Synthesizer, SyntheticRelease
from repro.utils.rng import derive_rng

ATTRIBUTES = ("block", "sex", "age", "race", "ethnicity")


@pytest.fixture(scope="module")
def census():
    config = CensusConfig(blocks=4, mean_block_size=6, max_block_size=10, age_range=(0, 19))
    return generate_census(config, rng=derive_rng(0, "census"))


@pytest.fixture(scope="module")
def domain(census):
    return CellDomain.from_dataset(census, ATTRIBUTES)


@pytest.fixture(scope="module")
def workload(domain):
    return Workload.random(domain.size, 30, density=0.1, rng=derive_rng(0, "wl"))


class TestMWEMSynthesizer:
    def test_deterministic_release(self, census, domain, workload):
        synthesizer = MWEMSynthesizer(workload, 1.0, rounds=5, domain=domain)
        first = synthesizer.synthesize(census, rng=derive_rng(7, "mwem"))
        second = synthesizer.synthesize(census, rng=derive_rng(7, "mwem"))
        assert np.array_equal(first.histogram, second.histogram)
        assert first.data.rows == second.data.rows
        assert first.error_trace == second.error_trace

    def test_release_is_well_formed(self, census, domain, workload):
        synthesizer = MWEMSynthesizer(workload, 1.0, rounds=5, domain=domain)
        release = synthesizer.synthesize(census, rng=derive_rng(1, "mwem"))
        assert len(release) == len(census)
        assert release.histogram.sum() == len(census)
        assert release.domain is domain
        assert release.data.schema.names == ATTRIBUTES
        assert len(release.error_trace) == 5

    def test_spec_carries_the_dp_claim(self, workload):
        spec = MWEMSynthesizer(workload, 2.0, rounds=4).spec
        assert spec.dp is True
        assert spec.spend.epsilon == 2.0
        assert "mwem" in spec.name
        # The kernel is calibrated for one measurement: eps / (2 * rounds),
        # i.e. a Laplace scale of 2 * rounds / eps.
        assert spec.kernel.scale == pytest.approx(4.0)

    def test_invalid_parameters_rejected(self, domain, workload):
        with pytest.raises(ValueError):
            MWEMSynthesizer(workload, 0.0)
        with pytest.raises(ValueError):
            MWEMSynthesizer(workload, 1.0, rounds=0)
        with pytest.raises(ValueError):
            MWEMSynthesizer(Workload.random(domain.size - 1, 5), 1.0, domain=domain)

    def test_charges_accountant_once(self, census, domain, workload):
        accountant = PrivacyAccountant()
        synthesizer = MWEMSynthesizer(workload, 1.0, rounds=5, domain=domain)
        synthesizer.synthesize(census, accountant=accountant, rng=derive_rng(2, "m"))
        assert accountant.total() == (pytest.approx(1.0), 0.0)
        assert accountant.queries_charged == 1

    def test_refused_budget_synthesizes_nothing(self, census, domain, workload):
        accountant = PrivacyAccountant(epsilon_budget=0.5)
        synthesizer = MWEMSynthesizer(workload, 1.0, rounds=5, domain=domain)
        rng = derive_rng(3, "m")
        state_before = rng.bit_generator.state
        with pytest.raises(BudgetExhausted):
            synthesizer.synthesize(census, accountant=accountant, rng=rng)
        # Nothing recorded, and the stream was never advanced.
        assert accountant.total() == (0.0, 0.0)
        assert accountant.queries_charged == 0
        assert rng.bit_generator.state == state_before
        # The budget still admits a release that fits.
        MWEMSynthesizer(workload, 0.5, rounds=5, domain=domain).synthesize(
            census, accountant=accountant, rng=rng
        )

    def test_failed_synthesis_rolls_back_the_charge(self, census):
        class ExplodingSynthesizer(MWEMSynthesizer):
            def _synthesize(self, dataset, rng):
                raise RuntimeError("mid-synthesis failure")

        workload = Workload.random(8, 4, rng=derive_rng(0, "w"))
        accountant = PrivacyAccountant(epsilon_budget=1.0)
        with pytest.raises(RuntimeError, match="mid-synthesis"):
            ExplodingSynthesizer(workload, 1.0).synthesize(
                census, accountant=accountant, rng=derive_rng(0, "m")
            )
        assert accountant.total() == (0.0, 0.0)
        assert accountant.queries_charged == 0


class TestHierarchicalSynthesizer:
    def test_deterministic_release(self, census):
        synthesizer = HierarchicalSynthesizer(1.0)
        first = synthesizer.synthesize(census, rng=derive_rng(5, "hier"))
        second = synthesizer.synthesize(census, rng=derive_rng(5, "hier"))
        assert first.data.rows == second.data.rows

    def test_release_covers_census_schema(self, census):
        release = HierarchicalSynthesizer(2.0).synthesize(census, rng=derive_rng(1, "h"))
        assert release.data.schema.names == ATTRIBUTES
        ages = release.data.column("age")
        assert all(0 <= age <= 19 for age in ages)

    def test_spec_splits_budget_across_levels(self):
        spec = HierarchicalSynthesizer(3.0).spec
        assert spec.dp is True
        assert spec.spend.epsilon == 3.0
        # Each level is measured at eps / 2.
        assert spec.kernel.p == pytest.approx(1.0 - np.exp(-1.5))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalSynthesizer(0.0)
        with pytest.raises(ValueError):
            HierarchicalSynthesizer(1.0, age_bin_width=0)

    def test_non_census_schema_rejected(self, workload):
        from repro.data.dataset import Dataset
        from repro.data.domain import CategoricalDomain
        from repro.data.schema import Attribute, Schema

        schema = Schema((Attribute("x", CategoricalDomain((0, 1))),))
        dataset = Dataset(schema, [(0,), (1,)])
        with pytest.raises(ValueError, match="block"):
            HierarchicalSynthesizer(1.0).synthesize(dataset, rng=derive_rng(0, "h"))


class TestIndependentSynthesizer:
    def test_deterministic_and_free(self, census):
        synthesizer = IndependentSynthesizer(
            attributes=("sex", "age", "race", "ethnicity"), group_by=("block",)
        )
        accountant = PrivacyAccountant()
        first = synthesizer.synthesize(census, accountant=accountant, rng=derive_rng(4, "i"))
        second = synthesizer.synthesize(census, rng=derive_rng(4, "i"))
        assert first.data.rows == second.data.rows
        assert len(first) == len(census)
        # dp=False and epsilon 0: the accountant records a zero-cost spend.
        assert first.spec.dp is False
        assert accountant.total() == (0.0, 0.0)

    def test_grouping_preserves_block_sizes(self, census):
        release = IndependentSynthesizer(group_by=("block",)).synthesize(
            census, rng=derive_rng(2, "i")
        )
        truth_blocks = sorted(census.column("block"))
        synth_blocks = sorted(release.data.column("block"))
        assert truth_blocks == synth_blocks

    def test_overlapping_grouping_rejected(self):
        with pytest.raises(ValueError, match="grouped"):
            IndependentSynthesizer(attributes=("block", "age"), group_by=("block",))


class TestNoiseDiscipline:
    def test_no_raw_generator_noise_in_synth(self):
        # Acceptance gate: every noise draw in repro.synth flows through
        # repro.privacy.kernels, never through rng.laplace / rng.normal.
        package_dir = pathlib.Path(repro.synth.__file__).parent
        for source_file in sorted(package_dir.glob("*.py")):
            source = source_file.read_text()
            assert "rng.laplace" not in source, source_file.name
            assert "rng.normal" not in source, source_file.name

    def test_release_reports_length(self, census, domain, workload):
        release = MWEMSynthesizer(workload, 1.0, rounds=3, domain=domain).synthesize(
            census, rng=derive_rng(0, "m")
        )
        assert isinstance(release, SyntheticRelease)
        assert len(release) == len(release.data)

    def test_abstract_base_requires_implementation(self):
        with pytest.raises(TypeError):
            Synthesizer()
