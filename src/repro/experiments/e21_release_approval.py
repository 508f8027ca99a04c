"""E21 — the release-approval gate closes the paper's legal loop.

Everything before this experiment measures; E21 *enforces*.  A
:class:`~repro.compliance.pipeline.CompliancePipeline` re-derives every
claimed protection with the repository's own machinery (empirical DP
verification, ledger recomputation, safe-harbor redaction, reconstruction
replay) and mints content-addressed certificates whose verdicts come from
the legal layer's falsifiability gate; a
:class:`~repro.compliance.gate.ComplianceGate` then refuses to let the
query service register any mechanism — or activate any synthetic fallback
— whose exact bits do not hold an approval.

Part A (microdata): three releases of one simulated census face the same
policy.  The eps=1 MWEM release earns a "GDPR singling-out: protected"
approval; the no-noise :class:`~repro.synth.independent.
IndependentSynthesizer` release is denied (its own spec admits ``dp=False``
— Legal Theorem 2.1 says the syntactic route fails to prevent singling
out); a raw k=4 Mondrian release is denied against a k>=10 policy with the
measured smallest class in the refutation premise.

Part B (service): a gated :class:`~repro.service.server.QueryServer`
refuses an uncertified Laplace analyst with zero budget/cache/answer
footprint, serves them after the exact spec is certified and approved,
refuses to activate an uncertified synthetic fallback (rolling the charge
back), activates it once the operator certifies the exact bits the server
will synthesize (synthesis is seed-deterministic), and refuses the exact
(no-DP) mechanism outright.
"""

from __future__ import annotations

from repro.anonymity import MondrianAnonymizer
from repro.compliance import (
    ComplianceDenied,
    ComplianceGate,
    CompliancePipeline,
    CompositionPolicyVerifier,
    DpClaimVerifier,
    KAnonymityClaimVerifier,
    Policy,
    ReconstructionResistanceVerifier,
    SafeHarborVerifier,
)
from repro.data.censusblocks import CensusConfig, generate_census
from repro.experiments.runner import ExperimentResult, register
from repro.privacy.accounting import BasicAccountant, PrivacyAccountant
from repro.queries.mechanism import ExactAnswerer, LaplaceAnswerer
from repro.queries.workload import Workload
from repro.service.server import QueryServer, SyntheticFallback
from repro.synth import (
    CellDomain,
    IndependentSynthesizer,
    MWEMSynthesizer,
    synthesize_binary,
)
from repro.utils.plots import ascii_chart
from repro.utils.rng import derive_rng
from repro.utils.tables import Table

#: The attributes every microdata release publishes (census order).
_ATTRIBUTES = ("block", "sex", "age", "race", "ethnicity")

#: Classification the microdata policy enforces: direct identifiers must be
#: absent.  The census schema publishes none of them, so a release fails
#: only if it smuggles one back in.
_CLASSIFICATION = (
    ("name", "names"),
    ("phone", "telephone-numbers"),
    ("ssn", "social-security-numbers"),
)


def _failing_names(certificate) -> str:
    return ", ".join(certificate.failing)


@register("E21")
def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Certify three microdata releases and gate a live query service."""
    if quick:
        config = CensusConfig(
            blocks=8, mean_block_size=8, max_block_size=16, age_range=(0, 39)
        )
        num_queries, rounds, dp_trials = 150, 12, 250
        n_service, fallback_rounds = 64, 6
    else:
        config = CensusConfig(
            blocks=16, mean_block_size=12, max_block_size=24, age_range=(0, 59)
        )
        num_queries, rounds, dp_trials = 300, 30, 1200
        n_service, fallback_rounds = 192, 10

    # ---- Part A: one policy, three microdata releases -----------------------
    census = generate_census(config, rng=derive_rng(seed, "e21-census"))
    domain = CellDomain.from_dataset(census, _ATTRIBUTES)
    histogram = domain.encode(census)
    workload = Workload.random(
        domain.size, num_queries, density=0.1, rng=derive_rng(seed, "e21-workload")
    )
    accountant = PrivacyAccountant()

    microdata_policy = Policy(
        name="census-microdata",
        epsilon_cap=2.0,
        k_min=10,
        dp_trials=dp_trials,
        safe_harbor_classification=_CLASSIFICATION,
    )
    dp_pipeline = CompliancePipeline(
        [DpClaimVerifier(), CompositionPolicyVerifier(), SafeHarborVerifier()],
        microdata_policy,
        seed=seed,
    )
    anon_pipeline = CompliancePipeline(
        [KAnonymityClaimVerifier(), DpClaimVerifier()],
        microdata_policy,
        seed=seed,
    )

    mwem_release = MWEMSynthesizer(
        workload, 1.0, rounds=rounds, domain=domain
    ).synthesize(census, accountant=accountant, rng=derive_rng(seed, "e21-mwem"))
    mwem_certificate = dp_pipeline.certify(
        mwem_release, data=histogram, accountant=accountant, subject="mwem-census"
    )

    independent_release = IndependentSynthesizer(
        attributes=("sex", "age", "race", "ethnicity"), group_by=("block",)
    ).synthesize(
        census, accountant=accountant, rng=derive_rng(seed, "e21-independent")
    )
    independent_certificate = dp_pipeline.certify(
        independent_release,
        data=histogram,
        accountant=accountant,
        subject="independent-census",
    )

    mondrian_release = MondrianAnonymizer(k=4).anonymize(census)
    mondrian_certificate = anon_pipeline.certify(
        mondrian_release,
        data=histogram,
        accountant=accountant,
        subject="mondrian-census",
    )

    census_epsilon, _ = accountant.total()
    mwem_dp_check = mwem_certificate.checks[
        [c.identifier for c in mwem_certificate.checks].index("DP-CLAIM")
    ]
    mondrian_kanon = mondrian_certificate.checks[
        [c.identifier for c in mondrian_certificate.checks].index("K-ANON")
    ]

    microdata = Table(
        ["release", "verifiers", "approved", "failing", "certificate"],
        title=(
            f"E21a: one policy ({microdata_policy.name}), three releases of "
            f"an n={len(census)} census"
        ),
    )
    for certificate in (
        mwem_certificate,
        independent_certificate,
        mondrian_certificate,
    ):
        microdata.add_row(
            [
                certificate.subject,
                ", ".join(check.identifier for check in certificate.checks),
                "approved" if certificate.approved else "DENIED",
                _failing_names(certificate) or "-",
                certificate.fingerprint[:12],
            ]
        )

    # ---- Part B: the gate in front of a live query service ------------------
    secret = derive_rng(seed, "e21-secret").integers(0, 2, size=n_service)
    service_policy = Policy(
        name="interactive-service",
        epsilon_cap=50.0,
        dp_trials=dp_trials,
        reconstruction_agreement_max=0.95,
    )
    gate = ComplianceGate(service_policy)
    fallback = SyntheticFallback(
        epsilon=1.0, rounds=fallback_rounds, num_queries=2 * n_service
    )
    epsilon_per_query = 0.5
    service_accountant = BasicAccountant(per_analyst_epsilon=3.0)
    server = QueryServer(
        secret,
        "laplace",
        {"epsilon_per_query": epsilon_per_query},
        accountant=service_accountant,
        seed=seed,
        synthetic_fallback=fallback,
        compliance=gate,
    )
    events = Table(
        ["event", "outcome", "eps spent", "audit records"],
        title="E21b: compliance gate on the live query service",
    )

    def note(event: str, outcome: str) -> None:
        events.add_row(
            [
                event,
                outcome,
                f"{service_accountant.global_spent():g}",
                len(server.audit_log),
            ]
        )

    # 1. Uncertified analyst: typed refusal, zero footprint.
    try:
        server.session("analyst-a")
        denial_reason = "(served!)"
    except ComplianceDenied as denied:
        denial_reason = denied.reason
    denial_footprint_records = len(server.audit_log)
    denial_footprint_epsilon = service_accountant.global_spent()
    note("uncertified laplace session", f"ComplianceDenied: {denial_reason}")

    # 2. Certify the exact spec the server charges; approval admits the
    # analyst (same spend, same kernel => same content fingerprint).
    laplace_spec = LaplaceAnswerer(secret, epsilon_per_query).spec
    spec_pipeline = CompliancePipeline(
        [DpClaimVerifier(), CompositionPolicyVerifier()], service_policy, seed=seed
    )
    spec_certificate = spec_pipeline.certify(
        laplace_spec,
        data=secret,
        accountant=service_accountant,
        subject="mechanism-spec",
    )
    gate.approve(spec_certificate, laplace_spec)
    session = server.session("analyst-a")
    probes = list(Workload.random(n_service, 6, rng=derive_rng(seed, "e21-probes")))
    interactive_answers = [session.ask(query) for query in probes]
    interactive_epsilon = session.epsilon_spent
    note("approved laplace session", f"{len(interactive_answers)} answers served")

    # 3. Budget exhausted, but the fallback release is not certified yet:
    # activation is refused and the one-time charge rolled back.
    spend_before = service_accountant.global_spent()
    overflow = Workload.random(
        n_service, 1, rng=derive_rng(seed, "e21-overflow")
    ).query(0)
    try:
        session.ask(overflow)
        fallback_denied = False
    except ComplianceDenied as denied:
        fallback_denied = denied.reason == "no-certificate"
    fallback_refunded = service_accountant.global_spent() == spend_before
    note(
        "uncertified synthetic fallback",
        "ComplianceDenied: no-certificate (charge rolled back)"
        if fallback_denied and fallback_refunded
        else "(activated!)",
    )

    # 4. Synthesis is seed-deterministic, so the operator certifies the
    # exact bits the server will produce — out of band, before activation.
    expected_release = synthesize_binary(
        secret,
        fallback.epsilon,
        fallback.rounds,
        num_queries=fallback.num_queries,
        density=fallback.density,
        rng=derive_rng(seed, "service", fallback.account),
    )
    fallback_pipeline = CompliancePipeline(
        [DpClaimVerifier(), ReconstructionResistanceVerifier()],
        service_policy,
        seed=seed,
    )
    fallback_certificate = fallback_pipeline.certify(
        expected_release, data=secret, subject="synthetic-fallback"
    )
    gate.approve(fallback_certificate, expected_release)
    fallback_answer = session.ask(overflow)
    fallback_activated = server.fallback_release is not None
    fallback_matches = fallback_answer == float(
        expected_release.answer(overflow.mask)
    )
    recon_check = fallback_certificate.checks[
        [c.identifier for c in fallback_certificate.checks].index("RECON")
    ]
    note("certified synthetic fallback", "activated; answers match certified bits")

    # 5. The exact mechanism never gets in: its own spec says dp=False.
    exact_certificate = spec_pipeline.certify(
        ExactAnswerer(secret).spec,
        data=secret,
        accountant=service_accountant,
        subject="exact-spec",
    )
    try:
        gate.approve(exact_certificate, ExactAnswerer(secret).spec)
        exact_denied = False
    except ComplianceDenied as denied:
        exact_denied = denied.reason == "denied-certificate"
    note("exact mechanism approval", "ComplianceDenied: denied-certificate")

    figure = ascii_chart(
        list(range(1, len(expected_release.error_trace) + 1)),
        [float(error) for error in expected_release.error_trace],
        title="E21: MWEM fit of the certified fallback release",
        x_label="round",
        y_label="workload error",
    )

    return ExperimentResult(
        experiment_id="E21",
        title="Release approval: legal theorems as machine-checked certificates",
        paper_claim=(
            "The paper's legal theorems can run as an enforcement gate: a "
            "DP release earns a singling-out-protection certificate, "
            "syntactic and no-noise releases are denied with the refuting "
            "measurement in the verdict, and an uncertified mechanism "
            "never touches the private data"
        ),
        tables=(microdata, events),
        headline={
            "mwem_approved": mwem_certificate.approved,
            "mwem_max_log_ratio": float(
                mwem_dp_check.measurements["max_observed_log_ratio"]
            ),
            "mwem_certificate": mwem_certificate.fingerprint,
            "independent_denied": not independent_certificate.approved,
            "independent_failing": _failing_names(independent_certificate),
            "mondrian_denied": not mondrian_certificate.approved,
            "mondrian_failing": _failing_names(mondrian_certificate),
            "mondrian_achieved_k": int(
                mondrian_kanon.measurements.get("achieved_k", 0)
            ),
            "census_epsilon_charged": float(census_epsilon),
            "service_denied_reason": denial_reason,
            "denial_footprint_records": denial_footprint_records,
            "denial_footprint_epsilon": float(denial_footprint_epsilon),
            "interactive_answers": len(interactive_answers),
            "interactive_epsilon": float(interactive_epsilon),
            "fallback_denied_before_approval": fallback_denied,
            "fallback_refunded": fallback_refunded,
            "fallback_activated": fallback_activated,
            "fallback_answer_matches": fallback_matches,
            "fallback_agreement": float(recon_check.measurements["agreement"]),
            "exact_denied": exact_denied,
            "denials_logged": len(server.audit_log.denials),
            "certificates_logged": len(server.audit_log.certificates),
            "gate_approvals": gate.approved_count,
        },
        figures=(figure,),
    )
