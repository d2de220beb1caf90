"""Bench: batch-by-default planner+executor sweep vs the scalar path, gated.

PR 7's kernel bench (``bench_batch.py``) times the kernel in isolation;
this one times what users actually run — a paper-figure sweep slice
through the full harness stack: ``planner.plan`` enumerates the jobs,
``plan_units`` partitions them into kernel chunks, and ``execute_jobs``
runs them, exactly as ``mcr-dram run`` does. The slice is the fig11
read-latency-ratio sweep (baseline + K∈{2,4} × ratio∈{0.25,0.5,1.0})
over six single-core workloads: 42 deduplicated jobs, every one
batch-compatible (plain specs, no allocation policy), landing in one
kernel chunk.

Bit-identity is asserted job by job before any timing counts: the
batch-default sweep's RunResults must equal the scalar-default sweep's
exactly — same fingerprints, same values in every compared field.
Both paths start with an empty trace memo per sample, so the ratio
measures end-to-end sweep time.

Both engines read the same lazily built refresh spread schedule, so the
ratio is what the kernel saves in stepping: 1.9-2.4x on a 2-vCPU host
(DESIGN.md records the measurements).

Gate: ``_GATE`` (1.5x, the margin by which the kernel must beat the
scalar path to keep its lines). Writes ``BENCH_sweep.json`` at the repo
root via :mod:`_emit`.
"""

import json
import statistics
import time

from _emit import emit_bench
from conftest import run_once

from repro.experiments.scale import ScaleConfig
from repro.harness import HarnessConfig, clear_trace_memo, execute_jobs
from repro.harness.planner import plan, plan_units
from tests.equivalence_harness import diff_results

_GATE = 1.5
_ROUNDS = 3
_SCALE = ScaleConfig(
    name="bench-sweep",
    n_requests_single=120,
    n_requests_multi_per_core=120,  # unused: the fig11 slice is single-core
    single_workloads=("comm2", "leslie", "libq", "stream", "mummer", "tigr"),
    n_multicore_mixes=1,
)


def _median_seconds(fn, rounds):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_sweep_batch_speedup(benchmark):
    jobs = plan(["fig11"], _SCALE)
    units = plan_units(jobs)
    chunk_lanes = sum(len(u.jobs) for u in units if u.kind == "chunk")
    assert chunk_lanes == len(jobs), "fig11 slice must be fully batchable"

    def run_sweep(batch: bool):
        # Both paths rebuild their traces per sample, so the ratio is
        # sweep time, not warm-cache stepping.
        clear_trace_memo()
        return execute_jobs(jobs, HarnessConfig(batch=batch), memo={})

    # Bit-identity first: the batch-default sweep must reproduce the
    # scalar-default sweep exactly before its speed counts.
    scalar_results = run_sweep(batch=False)
    batched_results = run_sweep(batch=True)
    assert list(scalar_results) == list(batched_results)  # same job order
    mismatches = [
        report
        for fingerprint in scalar_results
        if (
            report := diff_results(
                batched_results[fingerprint],
                scalar_results[fingerprint],
                f"job {fingerprint[:12]}",
            )
        )
        is not None
    ]
    assert mismatches == [], "\n".join(mismatches)

    run_once(benchmark, run_sweep, batch=True)
    scalar_wall = _median_seconds(lambda: run_sweep(batch=False), _ROUNDS)
    batch_wall = _median_seconds(lambda: run_sweep(batch=True), _ROUNDS)
    speedup = scalar_wall / batch_wall

    report = emit_bench(
        "BENCH_sweep.json",
        name="sweep_batch_speedup",
        wall_s=batch_wall,
        detail={
            "experiment": "fig11",
            "jobs": len(jobs),
            "work_units": len(units),
            "chunk_lanes": chunk_lanes,
            "workloads": list(_SCALE.single_workloads),
            "n_requests": _SCALE.n_requests_single,
            "rounds": _ROUNDS,
            "gate_speedup": _GATE,
            "scalar_wall_s": round(scalar_wall, 4),
            "batch_wall_s": round(batch_wall, 4),
            "speedup": round(speedup, 2),
        },
    )
    print()
    print(json.dumps(report, indent=2))
    assert speedup >= _GATE, (
        f"sweep-level batch speedup {speedup:.2f}x below the {_GATE}x gate "
        f"on the fig11 slice — see BENCH_sweep.json"
    )
