"""Audit log structure and the reconstruction auditor's verdicts."""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.mechanism import ExactAnswerer, LaplaceAnswerer
from repro.queries.workload import Workload
from repro.reconstruction.l2_decode import l2_decode
from repro.reconstruction.lp_decode import reconstruct_from_answers
from repro.service import audit as audit_module
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


class _Attack:
    """A least-l1 attacker whose transcript grows by one Laplace batch a call."""

    def __init__(self, n=64, batch=16, epsilon=0.5, seed=0):
        self.n, self.batch = n, batch
        self.data = derive_rng(seed, "data").integers(0, 2, size=n)
        self.answerer = LaplaceAnswerer(self.data, epsilon, rng=derive_rng(seed, "noise"))
        self.rng = derive_rng(seed, "w")
        self.log = AuditLog()

    def auditor(self, **overrides):
        kwargs = dict(
            agreement_threshold=0.8,
            audit_every=self.batch,
            min_queries=self.batch,
            alpha=None,
            screen="l2",
        )
        kwargs.update(overrides)
        return ReconstructionAuditor(self.data, **kwargs)

    def grow(self):
        workload = Workload.random(self.n, self.batch, rng=self.rng)
        _log_workload(self.log, "attacker", workload, self.answerer.answer_workload(workload))

    def lp_agreement(self):
        records = self.log.unique_records("attacker")
        workload = Workload(np.stack([record.mask() for record in records]))
        answers = np.array([record.answer for record in records])
        return reconstruct_from_answers(workload, answers).agreement_with(self.data)


class TestEscalatedAnalystsSkipTheScreen:
    """Least-l1: after an analyst's first escalation, passes run the LP alone.

    Seed 0's passes: the third escalates without tripping, the seventh trips.
    """

    def _escalate_once(self, **overrides):
        attack = _Attack()
        auditor = attack.auditor(**overrides)
        for _ in range(3):
            attack.grow()
            report = auditor.maybe_audit(attack.log, "attacker")
        assert report.escalated and not report.flagged
        return attack, auditor

    def test_pass_after_an_escalation_calls_no_screen(self, monkeypatch):
        attack, auditor = self._escalate_once(warm_start_passes=True)
        assert auditor._escalated == {"attacker"}
        assert auditor._warm == {}  # nothing would read it

        def no_screen(*args, **kwargs):
            raise AssertionError("the l2 screen ran")

        monkeypatch.setattr(audit_module, "l2_decode", no_screen)
        attack.grow()
        report = auditor.maybe_audit(attack.log, "attacker")
        assert report.escalated is True
        assert report.mode == "least-l1"
        assert report.agreement == attack.lp_agreement()
        assert report.warm_started is False

    def test_trip_drops_the_entry(self):
        attack, auditor = self._escalate_once(warm_start_passes=True)
        while not auditor.is_tripped("attacker"):
            attack.grow()
            auditor.maybe_audit(attack.log, "attacker")
            assert auditor._warm == {}
        assert auditor._escalated == set()
        assert auditor.reports[-1].mode == "least-l1"
        assert len(auditor.reports) == 7

    def test_screened_passes_still_read_the_warm_state(self):
        attack = _Attack()
        auditor = attack.auditor(warm_start_passes=True)
        reports = []
        for _ in range(4):
            attack.grow()
            reports.append(auditor.maybe_audit(attack.log, "attacker"))
        assert [r.mode for r in reports] == ["l2-screen", "l2-screen"] + ["least-l1"] * 2
        assert [r.escalated for r in reports] == [False, False, True, True]
        # The screen reads the stored point; the pass after the escalation
        # runs only a least-l1 LP, which does not.
        assert [r.warm_started for r in reports] == [False, True, True, False]

    def test_finite_alpha_screens_every_pass(self, monkeypatch):
        # With a finite alpha the feasibility LP can return the screened
        # point itself, so no pass may skip the screen.
        attack = _Attack()
        auditor = ReconstructionAuditor(
            attack.data,
            agreement_threshold=1.0,
            screen_margin=0.5,
            audit_every=16,
            min_queries=16,
            alpha=0.0,
            screen="l2",
        )
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return l2_decode(*args, **kwargs)

        monkeypatch.setattr(audit_module, "l2_decode", counted)
        reports = []
        for _ in range(3):
            workload = Workload.random(attack.n, 16, rng=attack.rng)
            answers = ExactAnswerer(attack.data).answer_workload(workload)
            _log_workload(attack.log, "attacker", workload, answers)
            reports.append(auditor.maybe_audit(attack.log, "attacker"))
        assert [report.escalated for report in reports] == [True] * 3
        assert [report.flagged for report in reports] == [False, False, True]
        assert len(calls) == 3
        assert auditor._escalated == set()

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        epsilon=st.sampled_from([0.25, 0.5, 1.0]),
        warm_start_passes=st.booleans(),
    )
    def test_escalated_reports_equal_the_lp_auditor(self, seed, epsilon, warm_start_passes):
        attack = _Attack(n=32, batch=8, epsilon=epsilon, seed=seed)
        screened = attack.auditor(warm_start_passes=warm_start_passes)
        exact = attack.auditor(screen="lp", warm_start_passes=warm_start_passes)
        escalated = False
        for _ in range(16):
            attack.grow()
            l2_report = screened.maybe_audit(attack.log, "attacker")
            lp_report = exact.maybe_audit(attack.log, "attacker")
            escalated = escalated or l2_report.escalated
            if escalated:
                assert l2_report.escalated
                assert (l2_report.agreement, l2_report.flagged, l2_report.mode) == (
                    lp_report.agreement,
                    lp_report.flagged,
                    lp_report.mode,
                )
            if lp_report.flagged or l2_report.flagged:
                break

    def test_concurrent_analysts_match_a_serial_replay(self):
        # Analysts' passes run concurrently under an AuditWorkerPool; the
        # per-analyst screen-skip state must come out as a serial replay's.
        n, batch, analysts = 32, 8, 6
        data = derive_rng(0, "data").integers(0, 2, size=n)

        def attack(index, auditor, log, reports):
            analyst = f"analyst-{index}"
            answerer = LaplaceAnswerer(data, 0.5, rng=derive_rng(index, "noise"))
            rng = derive_rng(index, "w")
            for _ in range(12):
                workload = Workload.random(n, batch, rng=rng)
                _log_workload(log, analyst, workload, answerer.answer_workload(workload))
                report = auditor.maybe_audit(log, analyst)
                if report is None:  # tripped
                    break
                reports[index].append((report.agreement, report.mode, report.escalated))

        def replay(concurrent):
            auditor = ReconstructionAuditor(
                data, audit_every=batch, min_queries=batch, alpha=None, screen="l2"
            )
            log, reports = AuditLog(), [[] for _ in range(analysts)]
            if not concurrent:
                for index in range(analysts):
                    attack(index, auditor, log, reports)
                return auditor, reports
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=attack, args=(index, auditor, log, reports))
                    for index in range(analysts)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            return auditor, reports

        serial_auditor, serial = replay(concurrent=False)
        concurrent_auditor, concurrent = replay(concurrent=True)
        assert concurrent == serial
        assert concurrent_auditor._escalated == serial_auditor._escalated
        # The replay exercises the skip: some analyst ran LP-only passes.
        skipped = [
            later
            for passes in serial
            for earlier, later in zip(passes, passes[1:])
            if earlier[2] and later[2]
        ]
        assert skipped


class TestWarmLabel:
    """``warm_started`` says whether the stored point reached a decoder."""

    def _reports(self, passes=3, **overrides):
        attack = _Attack()
        auditor = attack.auditor(warm_start_passes=True, **overrides)
        reports = []
        for _ in range(passes):
            attack.grow()
            reports.append(auditor.maybe_audit(attack.log, "attacker"))
        return auditor, reports

    def test_least_l1_lp_passes_are_cold(self):
        # The least-l1 LP never reads a start point, so nothing is stored
        # and no pass is labelled warm.
        auditor, reports = self._reports(screen="lp")
        assert [r.warm_started for r in reports] == [False, False, False]
        assert auditor._warm == {}

    def test_feasibility_lp_passes_are_warm(self):
        auditor, reports = self._reports(screen="lp", alpha=1e9)
        assert [r.mode for r in reports] == ["feasibility"] * 3
        assert [r.warm_started for r in reports] == [False, True, True]
        assert set(auditor._warm) == {"attacker"}
