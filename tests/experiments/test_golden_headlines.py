"""Golden headline values for the experiments the refactor touched.

E11 (DP verification + PSO under DP) and E18 (service audit) route every
noise draw and every accountant charge through ``repro.privacy``; their
quick-mode seed-0 headlines below were recorded pre-refactor and must stay
bit-identical (hex-float comparison, no tolerance).  E18's full-scale
headline and E19 (synthetic-data release) are pinned the same way, so any
drift in the audit or synthesis stacks is a deliberate, reviewed change.
E8's birthday row runs through the shared isolation estimator, so its quick
headline and every table row are pinned too.
"""

import pytest

from repro.experiments import run_experiment

pytestmark = pytest.mark.slow


def test_e11_quick_headline_bit_identical(quick_run):
    headline = quick_run("E11").headline
    assert float(headline["attack_success_exact_counts"]).hex() == "0x1.47ae147ae147bp-1"
    assert float(headline["attack_success_dp_eps2"]).hex() == "0x0.0p+0"


def test_e8_quick_headline_and_rows_bit_identical(quick_run):
    result = quick_run("E8")
    assert float(result.headline["measured_isolation_at_w_1_over_n"]).hex() == (
        "0x1.7851eb851eb85p-2"
    )
    (table,) = result.tables
    assert [(row[0], row[2], float(row[3]).hex()) for row in table.rows] == [
        ("birthday = Apr-30", "0.3675 [0.3217, 0.4158] (147/400)", "0x1.793dd97f62b6bp-2"),
        ("hash cut, w = 0.1/n", "0.0350 [0.0210, 0.0579] (14/400)", "0x1.0ba1f4b1ee243p-5"),
        ("hash cut, w = 0.5/n", "0.1300 [0.1005, 0.1665] (52/400)", "0x1.1b71758e21965p-3"),
        ("hash cut, w = 1.0/n", "0.2150 [0.1776, 0.2579] (86/400)", "0x1.a9c779a6b50b1p-3"),
        ("hash cut, w = 2.0/n", "0.1800 [0.1455, 0.2206] (72/400)", "0x1.a9930be0ded29p-3"),
        ("hash cut, w = 5.0/n", "0.0650 [0.0447, 0.0935] (26/400)", "0x1.35f1bef49cf57p-4"),
    ]


def test_e19_quick_headline_bit_identical(quick_run):
    headline = quick_run("E19").headline
    assert headline["mwem_defeats_linkage"] is True
    assert headline["independent_leaks"] is True
    assert headline["error_monotone"] is True
    assert float(headline["baseline_reidentified_rate"]).hex() == "0x1.7df7df7df7df8p-1"
    assert float(headline["mwem_eps1_reidentified_rate"]).hex() == "0x0.0p+0"
    assert float(headline["independent_reidentified_rate"]).hex() == "0x1.0410410410410p-5"
    assert float(headline["mwem_error_eps01"]).hex() == "0x1.578022acd5780p-4"
    assert float(headline["mwem_error_eps1"]).hex() == "0x1.689f1279b0239p-5"
    assert float(headline["mwem_error_eps10"]).hex() == "0x1.5826937a48b59p-5"
    assert float(headline["epsilon_charged"]).hex() == "0x1.8333333333333p+3"


@pytest.mark.parametrize("audit_dispatch", ["inline", "background"])
def test_e18_quick_headline_bit_identical(audit_dispatch):
    # Background audit workers, drained after every batch, must reproduce
    # the inline deployment's headline bit for bit.
    from repro.experiments.e18_service_audit import run as run_e18

    headline = run_e18(seed=0, quick=True, audit_dispatch=audit_dispatch).headline
    assert headline["attacker_flagged"] is True
    assert headline["dashboard_flagged"] is False
    assert headline["researcher_flagged"] is False
    assert headline["queries_served_before_trip"] == 496
    assert headline["audit_passes"] == 31
    assert float(headline["agreement_at_trip"]).hex() == "0x1.9c00000000000p-1"
    assert float(headline["dashboard_cache_hit_rate"]).hex() == "0x1.eb851eb851eb8p-1"
    assert float(headline["dashboard_replay_drift"]).hex() == "0x0.0p+0"
    assert float(headline["attacker_epsilon_spent"]).hex() == "0x1.f000000000000p+6"


def test_e18_full_headline_bit_identical():
    # The full run (n=256) trips later and higher than the quick one; it
    # is the run EXPERIMENTS.md reports.
    headline = run_experiment("E18", seed=0).headline
    assert headline["attacker_flagged"] is True
    assert headline["dashboard_flagged"] is False
    assert headline["researcher_flagged"] is False
    assert headline["queries_served_before_trip"] == 576
    assert headline["audit_passes"] == 18
    assert float(headline["agreement_at_trip"]).hex() == "0x1.a600000000000p-1"
    assert float(headline["dashboard_cache_hit_rate"]).hex() == "0x1.eb851eb851eb8p-1"
    assert float(headline["dashboard_replay_drift"]).hex() == "0x0.0p+0"
    assert float(headline["attacker_epsilon_spent"]).hex() == "0x1.2000000000000p+7"


def test_e18_headline_unchanged_by_telemetry_and_tracing(monkeypatch):
    # Telemetry is a pure observer: the golden headline must be identical
    # with REPRO_TELEMETRY=1 and with E18's span tracing enabled.
    from repro.experiments.e18_service_audit import run as run_e18

    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    reference = run_experiment("E18", seed=0, quick=True).headline
    traced = run_e18(seed=0, quick=True, trace=True)
    assert traced.headline == reference
    assert any("wall-clock" in table.title for table in traced.tables)
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert run_experiment("E18", seed=0, quick=True).headline == reference


def test_e21_headline_unchanged_by_telemetry(monkeypatch):
    # The gated serve/certify path is instrumented too; the E21 pins below
    # must hold with the process-default telemetry switched on.
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    headline = run_experiment("E21", seed=0, quick=True).headline
    assert headline["mwem_certificate"] == "ff7cb54062580a4d13f72542b8b38a7f"
    assert float(headline["census_epsilon_charged"]).hex() == "0x1.0000000000000p+0"
    assert float(headline["interactive_epsilon"]).hex() == "0x1.8000000000000p+1"


def test_e21_quick_headline_bit_identical(quick_run):
    headline = quick_run("E21").headline
    assert headline["mwem_approved"] is True
    assert headline["independent_failing"] == "DP-CLAIM"
    assert headline["mondrian_failing"] == "DP-CLAIM, K-ANON"
    assert headline["mondrian_achieved_k"] == 4
    assert headline["mwem_certificate"] == "ff7cb54062580a4d13f72542b8b38a7f"
    assert float(headline["mwem_max_log_ratio"]).hex() == "0x1.ede65f58845bdp-3"
    assert float(headline["fallback_agreement"]).hex() == "0x1.2000000000000p-1"
    assert float(headline["census_epsilon_charged"]).hex() == "0x1.0000000000000p+0"
    assert float(headline["interactive_epsilon"]).hex() == "0x1.8000000000000p+1"
    assert headline["denials_logged"] == 2
    assert headline["certificates_logged"] == 2
    assert headline["gate_approvals"] == 2
