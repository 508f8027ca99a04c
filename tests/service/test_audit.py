"""Audit log structure and the reconstruction auditor's verdicts."""

import json

import numpy as np
import pytest

from repro.queries.mechanism import ExactAnswerer
from repro.queries.workload import Workload
from repro.reconstruction.l2_decode import l2_decode
from repro.service import (
    AuditLog,
    CircuitBreakerTripped,
    ReconstructionAuditor,
    query_fingerprint,
)
from repro.utils.rng import derive_rng


def _log_workload(log, analyst, workload, answers, cached=False, epsilon=0.0):
    for query, answer in zip(workload, answers):
        log.append(
            analyst, query_fingerprint(query), query.mask, answer, cached, epsilon
        )


class TestAuditLog:
    def test_append_assigns_sequence_and_round_trips_mask(self):
        log = AuditLog()
        workload = Workload.random(12, 3, rng=0)
        _log_workload(log, "a", workload, [1.0, 2.0, 3.0])
        records = log.records()
        assert [record.seq for record in records] == [0, 1, 2]
        for record, query in zip(records, workload):
            assert np.array_equal(record.mask(), query.mask)
            assert record.n == 12
            assert record.query_size == query.size

    def test_per_analyst_views(self):
        log = AuditLog()
        workload = Workload.random(8, 2, rng=1)
        _log_workload(log, "a", workload, [1.0, 2.0])
        _log_workload(log, "b", workload, [1.0, 2.0])
        assert len(log) == 4
        assert len(log.records("a")) == 2
        assert all(record.analyst == "b" for record in log.records("b"))

    def test_unique_records_collapse_repeats(self):
        log = AuditLog()
        workload = Workload.random(8, 3, rng=2)
        _log_workload(log, "a", workload, [1.0, 2.0, 3.0])
        _log_workload(log, "a", workload, [1.0, 2.0, 3.0], cached=True)
        unique = log.unique_records("a")
        assert len(unique) == 3
        # First release wins: the retained records are the uncached ones.
        assert all(not record.cached for record in unique)

    def test_export_jsonl(self, tmp_path):
        log = AuditLog()
        workload = Workload.random(6, 2, rng=3)
        _log_workload(log, "a", workload, [1.0, 2.0], epsilon=0.5)
        path = tmp_path / "audit.jsonl"
        assert log.export_jsonl(path) == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["analyst"] == "a"
        assert lines[0]["epsilon"] == 0.5
        assert bytes.fromhex(lines[0]["fingerprint"]) == log.records()[0].fingerprint


class TestReconstructionAuditor:
    def _attack_transcript(self, n=64, m=None, seed=0):
        """An exact-answer Dinur-Nissim transcript: fully reconstructible."""
        data = derive_rng(seed, "data").integers(0, 2, size=n)
        workload = Workload.random(n, m or 2 * n, rng=derive_rng(seed, "w"))
        answers = ExactAnswerer(data).answer_workload(workload)
        log = AuditLog()
        _log_workload(log, "attacker", workload, answers)
        return data, log

    def test_flags_scripted_attacker(self):
        data, log = self._attack_transcript()
        auditor = ReconstructionAuditor(
            data, agreement_threshold=0.9, audit_every=16, min_queries=32, alpha=0.0
        )
        report = auditor.audit(log, "attacker")
        assert report is not None
        assert report.agreement >= 0.9
        assert report.flagged
        assert auditor.is_tripped("attacker")
        with pytest.raises(CircuitBreakerTripped) as excinfo:
            auditor.check("attacker")
        assert excinfo.value.analyst == "attacker"
        assert excinfo.value.report.agreement == report.agreement

    def test_below_min_queries_not_audited(self):
        data, log = self._attack_transcript(m=10)
        auditor = ReconstructionAuditor(data, min_queries=32, audit_every=8, alpha=0.0)
        assert auditor.audit(log, "attacker") is None
        assert auditor.maybe_audit(log, "attacker") is None
        assert not auditor.is_tripped("attacker")

    def test_maybe_audit_respects_cadence(self):
        # m = n/2: auditable but nowhere near reconstructible, so the pass
        # runs and leaves the breaker closed.
        data, log = self._attack_transcript(n=128, m=64)
        auditor = ReconstructionAuditor(
            data, agreement_threshold=0.9, audit_every=64, min_queries=64, alpha=0.0
        )
        first = auditor.maybe_audit(log, "attacker")
        assert first is not None
        assert not first.flagged
        # No new queries since the checkpoint: nothing to do.
        assert auditor.maybe_audit(log, "attacker") is None

    def test_tripped_analyst_not_reaudited(self):
        data, log = self._attack_transcript()
        auditor = ReconstructionAuditor(
            data, agreement_threshold=0.9, audit_every=1, min_queries=16, alpha=0.0
        )
        auditor.audit(log, "attacker")
        assert auditor.is_tripped("attacker")
        assert auditor.maybe_audit(log, "attacker") is None

    def test_benign_analyst_unflagged(self):
        # A small transcript far below m ~ n cannot support reconstruction.
        data = derive_rng(7, "data").integers(0, 2, size=128)
        workload = Workload.random(128, 40, rng=derive_rng(7, "w"))
        answers = ExactAnswerer(data).answer_workload(workload)
        log = AuditLog()
        _log_workload(log, "benign", workload, answers)
        auditor = ReconstructionAuditor(
            data, agreement_threshold=0.9, audit_every=8, min_queries=32, alpha=0.0
        )
        report = auditor.audit(log, "benign")
        assert report is not None
        assert not report.flagged
        assert not auditor.is_tripped("benign")
        auditor.check("benign")  # does not raise

    def test_duplicate_queries_add_nothing(self):
        data, log = self._attack_transcript(n=32, m=64)
        # Replay the same transcript again as cached hits.
        for record in list(log.records("attacker")):
            log.append(
                "attacker", record.fingerprint, record.mask(), record.answer, True, 0.0
            )
        auditor = ReconstructionAuditor(data, audit_every=8, min_queries=16, alpha=0.0)
        report = auditor.audit(log, "attacker")
        assert report.unique_queries == 64
        assert report.queries_logged == 128

    def test_parameter_validation(self):
        data = np.zeros(8, dtype=int)
        with pytest.raises(ValueError):
            ReconstructionAuditor(data, agreement_threshold=0.4)
        with pytest.raises(ValueError):
            ReconstructionAuditor(data, audit_every=0)
        with pytest.raises(ValueError):
            ReconstructionAuditor(data, min_queries=0)
        with pytest.raises(ValueError, match="screen mode"):
            ReconstructionAuditor(data, screen="l1")
        with pytest.raises(ValueError, match="screen_margin"):
            ReconstructionAuditor(data, screen_margin=-0.1)


class TestL2Screening:
    """The l2 screening pass: cheap by default, LP-identical when it counts."""

    def _attack_transcript(self, n=64, m=None, seed=0):
        data = derive_rng(seed, "data").integers(0, 2, size=n)
        workload = Workload.random(n, m or 2 * n, rng=derive_rng(seed, "w"))
        answers = ExactAnswerer(data).answer_workload(workload)
        log = AuditLog()
        _log_workload(log, "attacker", workload, answers)
        return data, log

    def _auditors(self, data, **overrides):
        kwargs = dict(
            agreement_threshold=0.9, audit_every=16, min_queries=32, alpha=0.0
        )
        kwargs.update(overrides)
        return (
            ReconstructionAuditor(data, screen="lp", **kwargs),
            ReconstructionAuditor(data, screen="l2", **kwargs),
        )

    def test_verdict_matches_lp_auditor_on_attacker(self):
        # A reconstructible transcript lands near the threshold, so the
        # screen escalates and the verdict is decided by the exact same LP
        # solve — same agreement, same flag.
        data, log = self._attack_transcript()
        lp_auditor, l2_auditor = self._auditors(data)
        lp_report = lp_auditor.audit(log, "attacker")
        l2_report = l2_auditor.audit(log, "attacker")
        assert l2_report.flagged == lp_report.flagged is True
        assert l2_report.agreement == lp_report.agreement
        assert l2_report.mode == lp_report.mode  # the LP's mode, not l2-screen
        assert l2_report.escalated is True
        assert lp_report.escalated is False

    def test_cheap_pass_skips_the_lp(self):
        # m = n/4: nowhere near reconstructible, so the l2 agreement stays
        # clear of the threshold-minus-margin bar and the pass never runs
        # an LP.
        data = derive_rng(11, "data").integers(0, 2, size=256)
        workload = Workload.random(256, 64, rng=derive_rng(11, "w"))
        answers = ExactAnswerer(data).answer_workload(workload)
        log = AuditLog()
        _log_workload(log, "benign", workload, answers)
        _, l2_auditor = self._auditors(data, min_queries=48)
        report = l2_auditor.audit(log, "benign")
        assert report.mode == "l2-screen"
        assert report.escalated is False
        assert not report.flagged

    def test_margin_zero_still_escalates_at_the_bar(self):
        # screen_margin=0 trusts the screen right up to the threshold, but
        # an at-threshold screen must still be confirmed by the LP.
        data, log = self._attack_transcript(seed=1)
        _, l2_auditor = self._auditors(data, screen_margin=0.0)
        report = l2_auditor.audit(log, "attacker")
        assert report.escalated is True
        assert report.flagged


class TestWarmStartPasses:
    """Warm-started auditor passes: same verdicts, carried-over state."""

    def _growing_log(self, n=64, batches=4, seed=0):
        data = derive_rng(seed, "data").integers(0, 2, size=n)
        rng = derive_rng(seed, "w")
        log = AuditLog()
        checkpoints = []
        for _ in range(batches):
            workload = Workload.random(n, n // 2, rng=rng)
            answers = ExactAnswerer(data).answer_workload(workload)
            _log_workload(log, "attacker", workload, answers)
            checkpoints.append(len(log.unique_records("attacker")))
        return data, log, checkpoints

    def _replay_passes(self, data, log, **kwargs):
        auditor = ReconstructionAuditor(
            data,
            agreement_threshold=0.99,
            audit_every=1,
            min_queries=16,
            alpha=0.0,
            screen="l2",
            **kwargs,
        )
        # Audit the same analyst repeatedly as the transcript grows is
        # simulated by repeated full audits (cadence reset by audit()).
        reports = [auditor.audit(log, "attacker") for _ in range(3)]
        return auditor, reports

    def test_verdicts_match_cold_passes(self):
        data, log, _ = self._growing_log()
        _, cold = self._replay_passes(data, log, warm_start_passes=False)
        _, warm = self._replay_passes(data, log, warm_start_passes=True)
        for cold_report, warm_report in zip(cold, warm):
            assert warm_report.flagged == cold_report.flagged
            assert warm_report.agreement == cold_report.agreement

    def test_warm_state_is_stored_per_analyst(self):
        data, log, _ = self._growing_log()
        auditor, _ = self._replay_passes(data, log, warm_start_passes=True)
        assert set(auditor._warm) == {"attacker"}
        assert auditor._warm["attacker"].shape == data.shape

    def test_tripping_pass_frees_warm_state(self):
        data, log, _ = self._growing_log()
        benign = Workload.random(64, 24, rng=derive_rng(1, "benign"))
        _log_workload(log, "benign", benign, ExactAnswerer(data).answer_workload(benign))
        auditor = ReconstructionAuditor(
            data,
            agreement_threshold=0.99,
            audit_every=8,
            min_queries=16,
            alpha=0.0,
            screen="l2",
            warm_start_passes=True,
        )
        assert auditor.maybe_audit(log, "benign").flagged is False
        assert auditor.maybe_audit(log, "attacker").flagged is True
        # The tripped analyst is never audited again: its state is gone,
        # while the analyst still under audit keeps its own.
        assert set(auditor._warm) == {"benign"}
        _log_workload(log, "attacker", benign, ExactAnswerer(data).answer_workload(benign))
        assert auditor.maybe_audit(log, "attacker") is None
        assert set(auditor._warm) == {"benign"}

    def test_cold_auditor_keeps_no_state(self):
        data, log, _ = self._growing_log()
        auditor, _ = self._replay_passes(data, log, warm_start_passes=False)
        assert auditor._warm == {}

    def test_warm_repass_converges_immediately(self):
        # Re-auditing an unchanged exact transcript from the previous
        # solution: the warm candidate certifies without iterating, so the
        # second pass is far faster than the first.
        data, log, _ = self._growing_log(n=128)
        auditor = ReconstructionAuditor(
            data,
            agreement_threshold=1.0,
            audit_every=1,
            min_queries=16,
            alpha=0.0,
            screen="l2",
            screen_margin=0.0,
            warm_start_passes=True,
        )
        first = auditor.audit(log, "attacker")
        second = auditor.audit(log, "attacker")
        assert second.agreement == first.agreement
        # The stored solution certifies the unchanged transcript upfront:
        # the repass costs one matvec, not a solve.  (Asserted via the
        # decoder rather than wall clock, which is noisy under load.)
        records = log.unique_records("attacker")
        workload = Workload(np.stack([record.mask() for record in records]))
        answers = np.array([record.answer for record in records])
        replay = l2_decode(workload, answers, 0.0, x0=auditor._warm["attacker"])
        assert replay.iterations == 0
