"""Acceptance tests: every experiment runs (quick scale) and its headline
numbers land in the paper-consistent range.

These are the repository's reproduction gates: a regression that flips who
wins an experiment fails here, not just in the benchmark report.
"""

import pytest

from repro.experiments import run_experiment

pytestmark = pytest.mark.slow


class TestReconstructionExperiments:
    def test_e1_exhaustive(self, quick_run):
        result = quick_run("E1")
        assert result.headline["min_agreement_at_small_c"] >= 0.95

    def test_e2_lp(self, quick_run):
        result = quick_run("E2")
        assert result.headline["min_agreement_at_c_half"] >= 0.9

    def test_e3_tradeoff_shape(self, quick_run):
        result = quick_run("E3")
        # Low noise: reconstruction; linear noise: defense.
        assert result.headline["agreement_below_half_sqrt_n"] >= 0.9
        assert result.headline["agreement_at_linear_noise"] <= 0.8


class TestReidentificationExperiments:
    def test_e4_uniqueness(self, quick_run):
        result = quick_run("E4")
        assert result.headline["unique_fraction_full_triple"] >= 0.9

    def test_e5_linkage(self, quick_run):
        result = quick_run("E5")
        assert result.headline["reidentified_rate_raw_release"] >= 0.7

    def test_e6_fingerprint(self, quick_run):
        result = quick_run("E6")
        assert result.headline["recall_with_8_known_ratings"] >= 0.8

    def test_e7_census(self, quick_run):
        result = quick_run("E7")
        assert result.headline["exact_reconstruction_fraction"] >= 0.25
        assert result.headline["reidentified_rate"] >= 0.05


class TestPsoExperiments:
    def test_e8_baseline(self, quick_run):
        result = quick_run("E8")
        assert result.headline["measured_isolation_at_w_1_over_n"] == pytest.approx(
            0.37, abs=0.08
        )

    def test_e9_counts_secure(self, quick_run):
        result = quick_run("E9")
        assert result.headline["count_mechanisms_worst_success"] <= 0.05
        assert result.headline["identity_mechanism_success"] >= 0.9

    def test_e10_composition_wins(self, quick_run):
        result = quick_run("E10")
        assert result.headline["min_success_across_sizes"] >= 0.3

    def test_e11_dp_defends(self, quick_run):
        result = quick_run("E11")
        assert result.headline["attack_success_exact_counts"] >= 0.3
        assert result.headline["attack_success_dp_eps2"] <= 0.1

    def test_e12_kanon_fails(self, quick_run):
        result = quick_run("E12")
        refinement = result.headline["refinement_success"]
        assert any(success >= 0.2 for success in refinement.values())
        assert result.headline["cohen_singleton_success"] >= 0.8


def test_experiments_are_deterministic():
    a = run_experiment("E4", seed=3, quick=True)
    b = run_experiment("E4", seed=3, quick=True)
    assert a.headline == b.headline


class TestExtensionExperiments:
    def test_e13_intersection(self, quick_run):
        result = quick_run("E13")
        assert result.headline["max_gain_over_single_release"] > 0.0
        assert result.headline["combined_disclosure_at_k4"] > 0.0

    def test_e14_secret_sharer(self, quick_run):
        result = quick_run("E14")
        assert result.headline["exposure_bits_control"] <= 2.0
        assert result.headline["exposure_bits_4_insertions"] >= 10.0
        assert result.headline["exposure_bits_dp_eps005"] <= 4.0

    def test_e15_ml_membership(self, quick_run):
        result = quick_run("E15")
        assert result.headline["auc_overfit"] >= 0.6
        assert result.headline["auc_overfit"] > result.headline["auc_generalizing"]
        assert result.headline["auc_dp_strongest"] < result.headline["auc_overfit"]

    def test_e16_genomic_membership(self, quick_run):
        result = quick_run("E16")
        assert result.headline["auc_wide_panel"] >= 0.95
        assert result.headline["auc_noisy_release"] <= 0.8

    def test_e18_service_audit(self, quick_run):
        result = quick_run("E18")
        # The auditor catches the LP attacker before blatant non-privacy...
        assert result.headline["attacker_flagged"] is True
        assert result.headline["agreement_at_trip"] < 0.9
        # ...while benign sessions stay unflagged and the cache stays
        # consistent (bit-identical replays, high hit rate, no recharge).
        assert result.headline["dashboard_flagged"] is False
        assert result.headline["researcher_flagged"] is False
        assert result.headline["dashboard_cache_hit_rate"] >= 0.9
        assert result.headline["dashboard_replay_drift"] == 0.0

    def test_e19_synthetic_release(self, quick_run):
        result = quick_run("E19")
        # DP synthesis defeats the linkage attack the raw data loses to...
        assert result.headline["mwem_eps1_reidentified_rate"] <= 0.05
        assert result.headline["baseline_reidentified_rate"] >= 0.5
        assert result.headline["mwem_defeats_linkage"] is True
        # ...the no-noise marginals baseline still leaks...
        assert result.headline["independent_leaks"] is True
        # ...and utility buys budget across the epsilon sweep.
        assert result.headline["error_monotone"] is True
        assert result.headline["epsilon_charged"] == pytest.approx(12.1)
        assert result.figures

    def test_e20_sharded_reconstruction(self, quick_run):
        result = quick_run("E20")
        # The sharded pipeline reconstructs the multi-block population...
        assert result.headline["agreement"] >= 0.95
        assert result.headline["blocks"] == 320
        # ...mostly on the l2 fast path, with only a minority of shards
        # needing the LP...
        assert result.headline["certified_fraction"] >= 0.5
        # ...and the joined bits are identical across worker counts.
        assert result.headline["jobs_invariant"] is True
        assert result.timings["records_per_second"] > 0

    def test_e21_release_approval(self, quick_run):
        result = quick_run("E21")
        # The DP release is certified; the leaky ones are denied with the
        # failing requirement named in the verdict.
        assert result.headline["mwem_approved"] is True
        assert result.headline["independent_denied"] is True
        assert "DP-CLAIM" in result.headline["independent_failing"]
        assert result.headline["mondrian_denied"] is True
        assert "K-ANON" in result.headline["mondrian_failing"]
        # The gate refuses uncertified mechanisms with zero footprint...
        assert result.headline["service_denied_reason"] == "no-certificate"
        assert result.headline["denial_footprint_records"] == 0
        assert result.headline["denial_footprint_epsilon"] == 0.0
        # ...serves after approval, and only activates the synthetic
        # fallback once its exact bits are certified.
        assert result.headline["interactive_answers"] == 6
        assert result.headline["fallback_denied_before_approval"] is True
        assert result.headline["fallback_refunded"] is True
        assert result.headline["fallback_activated"] is True
        assert result.headline["fallback_answer_matches"] is True
        assert result.headline["exact_denied"] is True
        assert result.headline["fallback_agreement"] < 0.95


class TestFigures:
    def test_e3_and_e8_carry_figures(self, quick_run):
        for experiment_id, marker in (("E3", "Fundamental Law"), ("E8", "isolation probability")):
            result = quick_run(experiment_id)
            assert result.figures, f"{experiment_id} should render a figure"
            assert any(marker in figure for figure in result.figures)
            assert marker.split()[0] in result.render()

    def test_e17_graph_deanonymization(self, quick_run):
        result = quick_run("E17")
        assert result.headline["passive_uniqueness"] >= 0.9
        assert result.headline["recovery_above_threshold"] >= 0.7
        assert (
            result.headline["recovery_below_threshold"]
            < result.headline["recovery_above_threshold"]
        )
