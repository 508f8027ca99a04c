"""The four end-to-end workloads: inputs, deployment, load and checks.

Each workload is three steps, kept apart so the harness can time them
separately:

* ``inputs(seed, seconds)`` generates every input from the seed before any
  timing starts.  ``seconds`` sizes the work through the workload's
  reference rate (:data:`RATES`), so one run measures about that long on
  the reference box; the same arguments always give the same inputs.
* ``deploy(inputs)`` builds what a user of the system sets up before
  serving: servers, auditor, compliance gate and its certificate.  The
  harness times it as part of ``setup_s``.
* ``drive(inputs, deployment, tracer)`` runs the load, checks every
  output, and returns a :class:`Outcome`.

The program receives only inputs and deployment parameters.  Execution
backends, telemetry and worker counts are left at the program's defaults,
and every server is built by :func:`build_server`.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import statistics
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse

from repro.compliance import CompliancePipeline, ComplianceGate, DpClaimVerifier, Policy
from repro.queries.mechanism import LaplaceAnswerer
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload
from repro.reconstruction.sharding import ShardedReconstructor
import repro.service
from repro.service import (
    BasicAccountant,
    BudgetExhausted,
    CircuitBreakerTripped,
    QueryServer,
    ReconstructionAuditor,
)

#: Private dataset size of every serving workload.
N = 512

#: Laplace epsilon charged per fresh query.
EPSILON_PER_QUERY = 0.25

#: Work per measured second on the reference box (2 cores): asks for
#: hot_replay, sessions for session_churn, LP attackers for audited_attack,
#: tracts for census_recon.  An attacker's trip takes ~9 s, so
#: audited_attack measures ~2.8x ``seconds``: three attackers give about
#: 27 verdicts, covering every transcript length several times.
RATES = {
    "hot_replay": 80_000,
    "session_churn": 1_400,
    "audited_attack": 0.3,
    "census_recon": 4.4,
}

# session_churn: 8 fresh asks against a budget of 6, then 4 replays.
CHURN_FRESH = 8
CHURN_BUDGET_QUERIES = 6
CHURN_REPLAYS = 4
CHURN_CLIENTS = 2

# audited_attack: E18's auditor, n/8-query attack batches, a 64-query
# dashboard at 2,000 asks/s.  The budget allows 32 batches per attacker.
ATTACK_MAX_BATCHES = 32
DASHBOARD_PANEL = 64
DASHBOARD_RATE = 2000.0

# census_recon: E20's population shape, decoded one tract at a time.
BLOCK_SIZE = 32
QUERIES_PER_BLOCK = 96
BLOCKS_PER_TRACT = 256
NOISE_BOUND = 1.0


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right.

    ``attempted`` counts operations (asks, attacker batches, tracts);
    ``failed`` counts operations with a wrong or unexpected outcome plus
    every failed end-of-run check.  Scripted refusals are checked, not
    failed.
    """

    throughput: float  #: work per second (asks, audited transcript rows, records)
    latencies: Sequence[float]  #: seconds per operation, answered operations only
    attempted: int
    failed: int
    digest: str  #: order-independent digest of every released answer
    failures: list[str] = field(default_factory=list)
    #: (seconds inside root spans, wall seconds) per closed-loop client thread
    client_windows: list[tuple[float, float]] = field(default_factory=list)
    #: layer readings taken from the program's own state after the run
    layers: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


def build_server(data: np.ndarray, *, sharded: bool = False, **deployment):
    """The one place a server is built: Laplace at EPSILON_PER_QUERY over ``data``.

    ``sharded`` asks for the sharded front end.  Should the program drop
    that class, the plain server is built instead and deployment
    parameters it does not take are left out, so removing a server class
    needs no edit to the benchmark.
    """
    server_class = QueryServer
    if sharded:
        server_class = getattr(repro.service, "ShardedQueryServer", QueryServer)
    accepted = inspect.signature(server_class).parameters
    return server_class(
        data,
        mechanism="laplace",
        mechanism_params={"epsilon_per_query": EPSILON_PER_QUERY},
        **{key: value for key, value in deployment.items() if key in accepted},
    )


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _work(name: str, seconds: float, floor: int = 1) -> int:
    return max(floor, round(RATES[name] * seconds))


#: Serving throughput is the median over windows of this many seconds.
WINDOW_S = 0.1


def median_rate(ends: np.ndarray, start: float) -> float:
    """Median asks per second over the whole WINDOW_S windows of a run.

    ``ends`` are the completion times of the answered asks.  The median
    over ~100 windows shrugs off the bursts of interference a shared box
    adds to any one second; runs too short for three windows fall back
    to the overall rate.
    """
    ends = np.asarray(ends)
    windows = int((ends.max() - start) // WINDOW_S)
    if windows < 3:
        return len(ends) / (ends.max() - start)
    index = ((ends - start) // WINDOW_S).astype(np.int64)
    counts = np.bincount(index[index < windows], minlength=windows)
    return float(np.median(counts)) / WINDOW_S


def _digest(*arrays: np.ndarray) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def _unique_masks(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` distinct non-empty random subsets of ``[n]``."""
    masks = rng.random((count, n)) < 0.5
    while True:
        _, first = np.unique(np.packbits(masks, axis=1), axis=0, return_index=True)
        redo = np.setdiff1d(np.arange(count), first)
        redo = np.union1d(redo, np.flatnonzero(~masks.any(axis=1)))
        if redo.size == 0:
            return masks
        masks[redo] = rng.random((redo.size, n)) < 0.5


def _queries(masks: np.ndarray) -> list[SubsetQuery]:
    return [SubsetQuery(mask) for mask in masks]


# ---------------------------------------------------------------------------
# hot_replay: one closed-loop analyst, 90% replays of their own queries
# ---------------------------------------------------------------------------


def hot_replay_inputs(seed: int, seconds: float, n: int = N) -> dict:
    asks = _work("hot_replay", seconds, floor=2)
    rng = _rng(seed, 1)
    fresh = rng.random(asks) < 0.1
    fresh[0] = True
    seen = np.cumsum(fresh)
    plan = np.where(fresh, seen - 1, np.floor(rng.random(asks) * seen)).astype(np.int64)
    queries = _queries(_unique_masks(rng, int(seen[-1]), n))
    return {
        "data": _rng(seed, 0).integers(0, 2, size=n),
        "seed": seed,
        "queries": queries,
        "fresh": fresh,
        "plan": plan,
        "sequence": [queries[index] for index in plan],
    }


def hot_replay_deploy(inputs: dict) -> dict:
    budget = EPSILON_PER_QUERY * (len(inputs["queries"]) + 1)
    server = build_server(
        inputs["data"],
        accountant=BasicAccountant(per_analyst_epsilon=budget),
        seed=inputs["seed"],
    )
    return {"server": server}


def hot_replay_drive(inputs: dict, deployment: dict, tracer) -> Outcome:
    server = deployment["server"]
    session = server.session("analyst")
    sequence = inputs["sequence"]
    asks = len(sequence)
    answers = array("d", [np.nan]) * asks
    latencies = array("d", bytes(8 * asks))
    ends = array("d", bytes(8 * asks))
    errors: list[str] = []
    ask = session.ask
    clock = time.perf_counter
    root_before = tracer.thread_root_seconds()
    start = clock()
    for index, query in enumerate(sequence):
        began = clock()
        try:
            answers[index] = ask(query)
        except Exception as error:  # counted as a failed ask, the run goes on
            errors.append(repr(error))
        ended = ends[index] = clock()
        latencies[index] = ended - began
    wall = clock() - start
    root_seconds = tracer.thread_root_seconds() - root_before

    released = np.frombuffer(answers)
    plan, fresh = inputs["plan"], inputs["fresh"]
    first = np.full(len(inputs["queries"]), np.nan)
    first[plan[fresh]] = released[fresh]
    outcome = Outcome(
        throughput=median_rate(np.frombuffer(ends), start),
        latencies=latencies,
        attempted=asks,
        failed=0,
        digest=_digest(first),
        client_windows=[(root_seconds, wall)],
    )
    if errors:
        outcome.fail(f"{len(errors)} asks raised, first: {errors[0]}", len(errors))
    wrong = ~(released == first[plan])
    if wrong.any():
        outcome.fail(f"{int(wrong.sum())} answers differ from their first release",
                     int(wrong.sum()))
    fresh_count = int(fresh.sum())
    if session.queries_charged != fresh_count:
        outcome.fail(f"charged {session.queries_charged} queries, {fresh_count} were fresh")
    cache = session.cache
    outcome.layers["cache.hit_ratio"] = cache.hit_rate
    if cache.hits != asks - fresh_count:
        outcome.fail(f"{cache.hits} cache hits, {asks - fresh_count} replays")
    server.close()
    return outcome


# ---------------------------------------------------------------------------
# session_churn: two clients drain short sessions on the sharded server
# ---------------------------------------------------------------------------


def session_churn_inputs(seed: int, seconds: float, n: int = N) -> dict:
    sessions = _work("session_churn", seconds)
    rng = _rng(seed, 1)
    pool = _queries(_unique_masks(rng, 4096, n))
    picks = rng.integers(0, len(pool), size=(sessions, CHURN_FRESH))
    while True:
        ordered = np.sort(picks, axis=1)
        clash = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if not clash.any():
            break
        picks[clash] = rng.integers(0, len(pool), size=(int(clash.sum()), CHURN_FRESH))
    # Replays repeat 4 of the 6 asks the budget answers.
    replays = np.argsort(rng.random((sessions, CHURN_BUDGET_QUERIES)), axis=1)
    return {
        "data": _rng(seed, 0).integers(0, 2, size=n),
        "seed": seed,
        "pool": pool,
        "picks": picks,
        "replays": replays[:, :CHURN_REPLAYS],
    }


def certified_gate(data: np.ndarray, seed: int) -> ComplianceGate:
    """A gate holding an approval of the exact Laplace spec the server charges."""
    policy = Policy(name="e2e-service", dp_trials=300)
    spec = LaplaceAnswerer(data, EPSILON_PER_QUERY).spec
    certificate = CompliancePipeline([DpClaimVerifier()], policy, seed=seed).certify(
        spec, data=data, subject="mechanism-spec"
    )
    gate = ComplianceGate(policy)
    gate.approve(certificate, spec)
    return gate


def session_churn_deploy(inputs: dict) -> dict:
    data = inputs["data"]
    service = repro.service
    accountant = getattr(service, "ShardedAccountant", BasicAccountant)
    admission = {}
    if hasattr(service, "RateLimit"):
        # Admission control is configured but can never bind.
        admission = {
            "rate_limit": service.RateLimit(rate=1e9, burst=10**9),
            "max_inflight_per_shard": 64,
        }
    server = build_server(
        data,
        sharded=True,
        accountant=accountant(per_analyst_epsilon=EPSILON_PER_QUERY * CHURN_BUDGET_QUERIES),
        compliance=certified_gate(data, inputs["seed"]),
        seed=inputs["seed"],
        **admission,
    )
    return {"server": server}


def session_churn_drive(inputs: dict, deployment: dict, tracer) -> Outcome:
    server = deployment["server"]
    pool, picks, replays = inputs["pool"], inputs["picks"], inputs["replays"]
    sessions = len(picks)
    asks_per_session = CHURN_FRESH + CHURN_REPLAYS
    answers = np.full((sessions, asks_per_session), np.nan)
    next_session = itertools.count()
    lock = threading.Lock()
    results: list[dict] = []
    clock = time.perf_counter

    def client() -> None:
        latencies: list[float] = []
        ends: list[float] = []
        problems: list[str] = []
        hits = misses = 0
        root_before = tracer.thread_root_seconds()
        began_client = clock()
        for index in next_session:
            if index >= sessions:
                break
            row = answers[index]
            try:
                session = server.session(f"analyst-{index}")
            except Exception as error:
                problems.append(f"session {index} registration raised {error!r}")
                continue
            ask = session.ask
            for position in range(CHURN_FRESH):
                query = pool[picks[index, position]]
                began = clock()
                try:
                    row[position] = ask(query)
                    ended = clock()
                    latencies.append(ended - began)
                    ends.append(ended)
                    if position >= CHURN_BUDGET_QUERIES:
                        problems.append(f"session {index} ask {position + 1} was answered")
                except BudgetExhausted:
                    if position < CHURN_BUDGET_QUERIES:
                        problems.append(f"session {index} ask {position + 1} was refused")
                except Exception as error:
                    problems.append(f"session {index} ask {position + 1} raised {error!r}")
            for slot, position in enumerate(replays[index]):
                query = pool[picks[index, position]]
                began = clock()
                try:
                    row[CHURN_FRESH + slot] = ask(query)
                    ended = clock()
                    latencies.append(ended - began)
                    ends.append(ended)
                except Exception as error:
                    problems.append(f"session {index} replay raised {error!r}")
            hits += session.cache.hits
            misses += session.cache.misses
        window = (tracer.thread_root_seconds() - root_before, clock() - began_client)
        with lock:
            results.append({"latencies": latencies, "ends": ends, "problems": problems,
                            "window": window, "lookups": (hits, misses)})

    threads = [threading.Thread(target=client) for _ in range(CHURN_CLIENTS)]
    start = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    outcome = Outcome(
        throughput=median_rate(np.concatenate([r["ends"] for r in results]), start),
        latencies=[value for r in results for value in r["latencies"]],
        attempted=sessions * asks_per_session,
        failed=0,
        digest=_digest(answers),
        client_windows=[r["window"] for r in results],
    )
    for r in results:
        for problem in r["problems"]:
            outcome.fail(problem)
    replayed = np.take_along_axis(answers, replays, axis=1)
    wrong = ~(answers[:, CHURN_FRESH:] == replayed)
    if wrong.any():
        outcome.fail(f"{int(wrong.sum())} replays differ from their first release",
                     int(wrong.sum()))
    expected = EPSILON_PER_QUERY * CHURN_BUDGET_QUERIES
    overspent = sum(
        server.accountant.analyst_epsilon(f"analyst-{index}") != expected
        for index in range(sessions)
    )
    if overspent:
        outcome.fail(f"{overspent} sessions did not spend exactly {expected}", overspent)
    rejects = sum(getattr(server, "rejections", {}).values())
    outcome.layers["admission.rejects"] = rejects
    if rejects:
        outcome.fail(f"admission control rejected {rejects} requests", rejects)
    hits = sum(r["lookups"][0] for r in results)
    misses = sum(r["lookups"][1] for r in results)
    outcome.layers["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if (hits, misses) != (CHURN_REPLAYS * sessions, CHURN_FRESH * sessions):
        outcome.fail(f"cache hits/misses {hits}/{misses}, expected "
                     f"{CHURN_REPLAYS * sessions}/{CHURN_FRESH * sessions}")
    server.close()
    return outcome


# ---------------------------------------------------------------------------
# audited_attack: LP attackers against E18's auditor, a dashboard alongside
# ---------------------------------------------------------------------------


def audited_attack_inputs(seed: int, seconds: float, n: int = N) -> dict:
    attackers = _work("audited_attack", seconds)
    rng = _rng(seed, 1)
    return {
        "data": _rng(seed, 0).integers(0, 2, size=n),
        "seed": seed,
        "attacks": [
            [
                Workload(_unique_masks(rng, n // 8, n), copy=False)
                for _ in range(ATTACK_MAX_BATCHES)
            ]
            for _ in range(attackers)
        ],
        "panel": _queries(_unique_masks(rng, DASHBOARD_PANEL, n)),
    }


def audited_attack_deploy(inputs: dict) -> dict:
    data = inputs["data"]
    n = len(data)
    auditor = ReconstructionAuditor(
        data,
        agreement_threshold=0.8,
        audit_every=n // 8,
        min_queries=n // 4,
        alpha=None,
        screen="l2",
        warm_start_passes=True,
    )
    server = build_server(
        data,
        accountant=BasicAccountant(per_analyst_epsilon=4.0 * EPSILON_PER_QUERY * n),
        auditor=auditor,
        audit_dispatch="background",
        seed=inputs["seed"],
    )
    return {"server": server, "auditor": auditor}


def audited_attack_drive(inputs: dict, deployment: dict, tracer) -> Outcome:
    server, auditor = deployment["server"], deployment["auditor"]
    panel = inputs["panel"]
    clock = time.perf_counter
    stop = threading.Event()
    dashboard: dict = {"answers": [], "lateness": [], "problems": []}

    def dashboard_client() -> None:
        """Open loop: ask i is due at start + i / rate, timed from when due."""
        session = server.session("dashboard")
        began = clock()
        for index in itertools.count():
            if stop.is_set():
                break
            due = began + index / DASHBOARD_RATE
            pause = due - clock()
            if pause > 0:
                time.sleep(pause)
            try:
                dashboard["answers"].append(session.ask(panel[index % len(panel)]))
            except Exception as error:
                dashboard["problems"].append(f"dashboard ask {index} raised {error!r}")
                dashboard["answers"].append(float("nan"))
            dashboard["lateness"].append(clock() - due)

    watcher = threading.Thread(target=dashboard_client)
    watcher.start()
    flush = server.audit_dispatch.flush
    latencies: list[float] = []
    audited_rows: list[int] = []  # transcript length each verdict covered
    trips: list[float] = []
    released: list[np.ndarray] = []
    outcome = Outcome(throughput=0.0, latencies=latencies, attempted=0, failed=0, digest="")
    root_before = tracer.thread_root_seconds()
    attack_start = clock()
    for number, batches in enumerate(inputs["attacks"]):
        session = server.session(f"attacker-{number}")
        attack_began = clock()
        transcript = 0
        for batch in batches:
            outcome.attempted += 1
            began = clock()
            try:
                released.append(session.ask_workload(batch))
                flush()
            except CircuitBreakerTripped as refusal:
                trips.append(clock() - attack_began)
                agreement = refusal.report.agreement
                if not 0.8 <= agreement < 0.9:
                    outcome.fail(f"attacker {number} tripped at agreement {agreement:.3f}")
                break
            except Exception as error:
                outcome.fail(f"attacker {number} batch raised {error!r}")
                break
            latencies.append(clock() - began)
            transcript += len(batch)
            audited_rows.append(transcript)
        else:
            outcome.fail(f"attacker {number} was never refused")
    wall = clock() - attack_start
    outcome.client_windows.append((tracer.thread_root_seconds() - root_before, wall))
    stop.set()
    watcher.join()

    drained = flush(timeout=120.0)
    if not drained:
        outcome.fail("the audit pool did not drain")
    pool_errors = getattr(server.audit_dispatch, "errors", ())
    if pool_errors:
        outcome.fail(f"audit pool recorded {len(pool_errors)} errors: {pool_errors[0]!r}")
    if auditor.is_tripped("dashboard"):
        outcome.fail("the dashboard was flagged")
    for problem in dashboard["problems"]:
        outcome.fail(problem)
    asked = np.array(dashboard["answers"])
    outcome.attempted += len(asked)
    if len(asked) < len(panel):
        outcome.fail(f"the dashboard asked {len(asked)} queries, fewer than its panel")
    first_round = asked[: len(panel)]
    wrong = ~(asked == np.resize(first_round, len(asked)))
    if wrong.any():
        outcome.fail(f"{int(wrong.sum())} dashboard replays differ", int(wrong.sum()))

    reports = [r for r in auditor.reports if r.analyst.startswith("attacker-")]
    pass_seconds = [r.elapsed_seconds for r in reports]
    # Each verdict re-decodes the attacker's whole transcript, and a batch
    # costs about the same per transcript row at every length.  Rows per
    # second therefore does not move with the seed's trip point, where
    # per-batch or per-attack times do.
    if latencies:
        outcome.throughput = statistics.median(
            rows / seconds for rows, seconds in zip(audited_rows, latencies)
        )
    outcome.digest = _digest(first_round, *released, np.array([len(r) for r in released]))
    lateness = sorted(dashboard["lateness"])
    outcome.layers.update(
        {
            "attack.trip_s": statistics.fmean(trips) if trips else 0.0,
            "auditor.pass.calls": len(reports),
            "auditor.pass.total_s": sum(pass_seconds),
            "auditor.pass.p50_us": 1e6 * statistics.median(pass_seconds) if reports else 0.0,
            "auditor.escalation_ratio": (
                sum(r.escalated for r in reports) / len(reports) if reports else 0.0
            ),
            "audit_worker.benign_p99_ms": (
                1e3 * lateness[int(0.99 * (len(lateness) - 1))] if lateness else 0.0
            ),
        }
    )
    server.close()
    return outcome


# ---------------------------------------------------------------------------
# census_recon: E20's block population, reconstructed tract by tract
# ---------------------------------------------------------------------------


def census_tract(rng: np.random.Generator, blocks: int) -> tuple[Workload, np.ndarray, np.ndarray]:
    """One tract: a block-diagonal workload, its private bits, noisy answers.

    Block ``p`` answers QUERIES_PER_BLOCK random subsets of its own
    BLOCK_SIZE people; each answer is off by a uniform draw from
    ``{-1, 0, +1}``, so NOISE_BOUND is the decoder's certificate.
    """
    b, m = BLOCK_SIZE, QUERIES_PER_BLOCK
    masks = rng.random((blocks, m, b)) < 0.5
    empty = ~masks.any(axis=2)
    while empty.any():
        masks[empty] = rng.random((int(empty.sum()), b)) < 0.5
        empty = ~masks.any(axis=2)
    block, row, col = np.nonzero(masks)
    matrix = scipy.sparse.csr_matrix(
        (np.ones(len(block)), (block * m + row, block * b + col)),
        shape=(blocks * m, blocks * b),
    )
    data = rng.integers(0, 2, size=blocks * b)
    answers = matrix @ data + rng.integers(-1, 2, size=blocks * m)
    return Workload.from_csr(matrix, copy=False), data, answers.astype(float)


def census_recon_inputs(seed: int, seconds: float, blocks: int = BLOCKS_PER_TRACT) -> dict:
    tracts = _work("census_recon", seconds)
    return {"tracts": [census_tract(_rng(seed, 2, t), blocks) for t in range(tracts)]}


def _check_tract(workload: Workload, answers: np.ndarray, result) -> str:
    """Recompute every block's residual from the returned bits.

    Each reported residual must be the true one, and every block the
    decoder calls l2-certified must be within NOISE_BOUND.  A block
    escalated to the LP may end above the bound: rounding the LP's
    fractional point carries no certificate.
    """
    blocks = len(answers) // QUERIES_PER_BLOCK
    if result.blocks != blocks:
        return f"{result.blocks} blocks discovered, {blocks} generated"
    rows = np.abs(workload.matrix(sparse=True) @ result.reconstruction - answers)
    actual = rows.reshape(blocks, QUERIES_PER_BLOCK).max(axis=1)
    reported = np.array([report.max_residual for report in result.shard_reports])
    if not np.array_equal(actual, reported):
        return "reported block residuals differ from the returned bits"
    certified = np.array([report.certified for report in result.shard_reports])
    if (actual[certified] > NOISE_BOUND).any():
        return "an l2-certified block exceeds the noise bound"
    return ""


def census_recon_deploy(inputs: dict) -> dict:
    return {"reconstructor": ShardedReconstructor(alpha=NOISE_BOUND)}


def census_recon_drive(inputs: dict, deployment: dict, tracer) -> Outcome:
    reconstructor = deployment["reconstructor"]
    tracts = inputs["tracts"]
    clock = time.perf_counter
    latencies: list[float] = []
    results = []
    outcome = Outcome(throughput=0.0, latencies=latencies, attempted=len(tracts),
                      failed=0, digest="")
    root_before = tracer.thread_root_seconds()
    start = clock()
    for number, (workload, _, answers) in enumerate(tracts):
        began = clock()
        try:
            results.append(reconstructor.reconstruct(workload, answers))
        except Exception as error:
            outcome.fail(f"tract {number} raised {error!r}")
            results.append(None)
            continue
        latencies.append(clock() - began)
    wall = clock() - start
    outcome.client_windows.append((tracer.thread_root_seconds() - root_before, wall))

    records = sum(len(data) for _, data, _ in tracts)
    if latencies:
        outcome.throughput = len(tracts[0][1]) / statistics.median(latencies)
    matched = 0
    blocks = certified = escalated = 0
    bits = []
    for number, ((workload, data, answers), result) in enumerate(zip(tracts, results)):
        if result is None:
            continue
        matched += int((result.reconstruction == data).sum())
        bits.append(result.reconstruction)
        blocks += result.blocks
        certified += result.certified
        escalated += result.escalated
        problem = _check_tract(workload, answers, result)
        if problem:
            outcome.fail(f"tract {number}: {problem}")
    agreement = matched / records
    if agreement < 0.999:
        outcome.fail(f"agreement {agreement:.5f} < 0.999")
    outcome.digest = _digest(*bits)
    outcome.layers.update(
        {
            "sharding.certified_ratio": certified / blocks if blocks else 0.0,
            "sharding.escalated": escalated,
        }
    )
    return outcome


@dataclass(frozen=True)
class Spec:
    inputs: Callable[..., dict]  #: (seed, seconds) -> inputs
    deploy: Callable[[dict], dict]  #: inputs -> deployment
    drive: Callable[[dict, dict, object], Outcome]  #: (inputs, deployment, tracer)


WORKLOADS: dict[str, Spec] = {
    "hot_replay": Spec(hot_replay_inputs, hot_replay_deploy, hot_replay_drive),
    "session_churn": Spec(session_churn_inputs, session_churn_deploy, session_churn_drive),
    "audited_attack": Spec(
        audited_attack_inputs, audited_attack_deploy, audited_attack_drive
    ),
    "census_recon": Spec(census_recon_inputs, census_recon_deploy, census_recon_drive),
}
