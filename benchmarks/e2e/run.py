#!/usr/bin/env python3
"""The end-to-end benchmark: four workloads, their metrics and a layer trace.

Run from the repository root::

    python benchmarks/e2e/run.py                       # all four workloads
    python benchmarks/e2e/run.py --workload hot_replay --seed 3
    python benchmarks/e2e/run.py --workload census_recon --trace

Every workload runs in a fresh subprocess with ``src`` on its path and the
``REPRO_EXEC_BACKEND``, ``REPRO_TELEMETRY`` and ``REPRO_AUDIT_WORKERS``
variables removed, so the program runs at its defaults.  An untraced run
prints the end-to-end metrics; ``--trace`` runs the workload untraced and
then traced and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output check
failed and 2 when the program cannot be found.

See README.md in this directory for the workloads, the metrics and how to
compare two commits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("hot_replay", "session_churn", "audited_attack", "census_recon")

#: Set-up is measured in this many fresh processes; setup_s is the median.
SETUP_SAMPLES = 3

#: Environment variables that would select a backend, telemetry or workers.
STRIPPED_ENV = ("REPRO_EXEC_BACKEND", "REPRO_TELEMETRY", "REPRO_AUDIT_WORKERS")

#: Every child of one workload is killed once this much time has passed,
#: so one workload's command ends within three minutes even when stuck.
WORKLOAD_BUDGET_S = 170

#: (name, unit): what every untraced run reports.  Per-operation latency
#: is printed but kept out: with two GIL-sharing clients, session_churn's
#: median jumps between modes from run to run (35 us to 95 us).
END_TO_END = (
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Why each workload is in the benchmark: the layers it stresses.
WHY = {
    "hot_replay": "90% replays: fingerprinting, cache lookup and log append dominate",
    "session_churn": "fresh short sessions: registration, ledger charges, noise, cache inserts",
    "audited_attack": "LP attackers until refused: l2 screen, LP escalation, audit queue",
    "census_recon": "no serving: batched l2 and LP escalation over many 32-person blocks",
}

#: What ``throughput`` counts on each workload, and how it is taken.
THROUGHPUT = {
    "hot_replay": "asks answered per second, median over 0.1 s windows",
    "session_churn": "asks answered per second, median over 0.1 s windows",
    "audited_attack": "transcript rows audited per second, median over attacker batches",
    "census_recon": "records reconstructed per second, median over tracts",
}

#: Spans that get a p99 (the ones called at least 1,000 times somewhere).
P99_SPANS = (
    "server.session",
    "server.ask",
    "cache.fingerprint",
    "cache.get",
    "cache.put",
    "accounting.acquire",
    "mechanism.answer",
    "audit_log.append",
    "compliance.require",
)

#: Spans with wrapped children, which also report their self time.
PARENT_SPANS = ("server.session", "server.ask", "server.ask_workload", "sharding.reconstruct")

#: (name, unit) read off the program's state or the clients, not a span.
DERIVED_LAYERS = (
    ("admission.rejects", "count"),
    ("cache.hit_ratio", "ratio"),
    ("accounting.refusals", "count"),
    ("auditor.pass.calls", "count"),
    ("auditor.pass.total_s", "s"),
    ("auditor.pass.p50_us", "us"),
    ("auditor.escalation_ratio", "ratio"),
    ("audit_worker.queue_wait_s", "s"),
    ("audit_worker.benign_p99_ms", "ms"),
    ("attack.trip_s", "s"),
    ("sharding.certified_ratio", "ratio"),
    ("sharding.escalated", "count"),
    ("client.latency_p50_us", "us"),
    ("client.latency_p99_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.missing", "count"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    from tracer import WRAP_TARGETS

    metrics = []
    for name in dict.fromkeys(name for name, _ in WRAP_TARGETS):
        metrics += [(f"{name}.calls", "count"), (f"{name}.total_s", "s")]
        if name in PARENT_SPANS:
            metrics.append((f"{name}.self_s", "s"))
        metrics.append((f"{name}.p50_us", "us"))
        if name in P99_SPANS:
            metrics.append((f"{name}.p99_us", "us"))
    return metrics + list(DERIVED_LAYERS)


# ---------------------------------------------------------------------------
# child side: one workload in this process
# ---------------------------------------------------------------------------


def child(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> dict:
    started = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - started
    spec = workloads.WORKLOADS[name]
    inputs = spec.inputs(seed, 0.0 if setup_only else seconds)
    # The inputs live for the whole run; frozen, they are not traversed by
    # every garbage collection the program's own allocations trigger.
    gc.freeze()
    built = time.perf_counter()
    deployment = spec.deploy(inputs)
    setup_s = import_s + time.perf_counter() - built
    if setup_only:
        for part in deployment.values():
            close = getattr(part, "close", None)
            if close is not None:
                close()
        return {"setup_s": setup_s}

    from tracer import NullTracer, Tracer

    tracer = Tracer().install() if trace else NullTracer()
    try:
        outcome = spec.drive(inputs, deployment, tracer)
    finally:
        if trace:
            tracer.uninstall()
    import numpy as np

    latencies = np.sort(np.asarray(outcome.latencies, dtype=float))
    report = {
        "setup_s": setup_s,
        "throughput": outcome.throughput,
        "latency_p50_us": 1e6 * float(np.median(latencies)) if len(latencies) else 0.0,
        "latency_p99_us": 1e6 * float(latencies[int(0.99 * (len(latencies) - 1))])
        if len(latencies)
        else 0.0,
        "samples": len(latencies),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "digest": outcome.digest,
        "layers": outcome.layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if trace:
        roots = sum(inside for inside, _ in outcome.client_windows)
        walls = sum(wall for _, wall in outcome.client_windows)
        report["trace"] = {
            "spans": tracer.summary(),
            "missing": tracer.missing,
            "coverage": roots / walls if walls else 0.0,
        }
        OUT.mkdir(exist_ok=True)
        trees = OUT / f"trace_{name}_seed{seed}.json"
        trees.write_text(json.dumps(tracer.trees()))
    return report


# ---------------------------------------------------------------------------
# parent side: subprocesses, metrics, printing
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def spawn(
    name: str, seed: int, seconds: float, trace: bool, setup_only: bool, deadline: float
) -> dict:
    """Run one child and return its report; it is killed at ``deadline``."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    if setup_only:
        command.append("--setup-only")
    completed = subprocess.run(
        command,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {completed.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return "unknown"
    return top[1]


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    run = spawn(name, seed, seconds, False, False, deadline)
    setups = [run["setup_s"]] + [
        spawn(name, seed, seconds, False, True, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    values = {
        "throughput": run["throughput"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    return run, {key: {"value": value, "unit": units[key]} for key, value in values.items()}


def layers(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    base = spawn(name, seed, seconds, False, False, deadline)
    run = spawn(name, seed, seconds, True, False, deadline)
    trace = run["trace"]
    spans = trace["spans"]
    values = {}
    for metric, _unit in per_layer_metrics():
        span, _, field = metric.rpartition(".")
        if span in spans:
            values[metric] = spans[span].get(field, 0.0)
    values.update(run["layers"])
    acquire = spans.get("accounting.acquire", {})
    flush = spans.get("audit_worker.flush", {})
    values["accounting.refusals"] = acquire.get("errors", 0)
    if flush:
        values["audit_worker.queue_wait_s"] = (
            flush["total_s"] - run["layers"].get("auditor.pass.total_s", 0.0)
        )
    values["client.latency_p50_us"] = base["latency_p50_us"]
    values["client.latency_p99_us"] = base["latency_p99_us"]
    values["trace.coverage"] = trace["coverage"]
    values["trace.overhead"] = (
        run["throughput"] / base["throughput"] if base["throughput"] else 0.0
    )
    values["trace.missing"] = len(trace["missing"])
    metrics = {
        metric: {"value": values.get(metric, 0), "unit": unit}
        for metric, unit in per_layer_metrics()
    }
    combined = dict(run)
    combined["attempted"] = base["attempted"] + run["attempted"]
    combined["failed"] = base["failed"] + run["failed"]
    combined["failures"] = base["failures"] + run["failures"]
    if base["digest"] != run["digest"]:
        combined["failed"] += 1
        combined["failures"].append("the traced run released different answers")
    return combined, metrics


def show(name: str, seed: int, seconds: float, run: dict, metrics: dict) -> None:
    print(f"== {name} (seed {seed}, {seconds:g} s): {WHY[name]}")
    for metric, entry in metrics.items():
        note = THROUGHPUT[name] if metric == "throughput" else ""
        print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']:6s} {note}".rstrip())
    if "trace" not in run:
        print(f"  {'latency_p50_us':34s} {run['latency_p50_us']:>16.6g} us     "
              f"per operation, {run['samples']} samples")
        if run["samples"] >= 1000:
            print(f"  {'latency_p99_us':34s} {run['latency_p99_us']:>16.6g} us")
    attempted, failed = run["attempted"], run["failed"]
    print(f"  {'fail_frac':34s} {failed / attempted:>16.6g} ratio  ({failed}/{attempted})")
    for name_path_reason in run.get("trace", {}).get("missing", []):
        print("  missing: {} <- {} ({})".format(*name_path_reason))
    for failure in run["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  answers_digest {run['digest']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per workload on the reference box")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        report = child(args.child, args.seed, args.seconds, bool(args.trace), args.setup_only)
        print(json.dumps(report))
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not at {SRC / 'repro'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOAD_NAMES)
    measure = layers if args.trace else end_to_end
    results = {}
    for name in names:
        try:
            deadline = time.monotonic() + WORKLOAD_BUDGET_S
            results[name] = measure(name, args.seed, args.seconds, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    versions = next(iter(results.values()))[0]["versions"]
    provenance = {
        "cpu_count": os.cpu_count(),
        **versions,
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    print(f"# provenance {json.dumps(provenance)}")
    for name, (run, metrics) in results.items():
        show(name, args.seed, args.seconds, run, metrics)

    attempted = sum(run["attempted"] for run, _ in results.values())
    failed = sum(run["failed"] for run, _ in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))[1]
    else:
        metrics = {
            f"{name}.{metric}": entry
            for name, (_, per_workload) in results.items()
            for metric, entry in per_workload.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
