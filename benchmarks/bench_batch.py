"""Bench: batched lockstep kernel vs scalar engine on a sweep slice, gated.

``repro.batch`` exists for sweep throughput: many short (config, seed)
runs stepped in lockstep in one process. This bench times a
representative sweep slice — 8 MCR mode configs x 8 seeds, 60-request
random traces on the verify fuzzer's 1-channel geometry — through both
engines in the same process (so machine speed cancels out of the ratio)
and gates the aggregate speedup at ``_GATE`` (1.5x, the margin by which
the kernel must beat the scalar engine to keep its lines).

Both engines read the same lazily built refresh spread schedule, and a
run reads only the slots it reaches, so neither pays for the 8192-slot
window. The ratio is what the kernel's lane stepper and its shared
classifiers and decode memo save: 1.7-2.4x on a 2-vCPU host (DESIGN.md
records the measurements).

Bit-identity is asserted lane by lane in the same run before the ratio
counts: every batched RunResult must equal its scalar run exactly.

Writes ``BENCH_batch.json`` at the repo root via :mod:`_emit`.
"""

import json
import random
import statistics
import time

from _emit import emit_bench
from conftest import run_once

from repro.batch import BatchInstance, run_batch
from repro.core import MCRMode, SystemSpec, run_system
from repro.verify.generator import fuzz_geometry, random_trace
from tests.equivalence_harness import diff_results

_GATE = 1.5
_ROUNDS = 3
_MODES = (
    "off",
    "2/2x",
    "4/4x",
    "2/2x/50%reg",
    "4/4x/50%reg",
    "1/2x",
    "2/4x",
    "4/4x/25%reg",
)
_SEEDS = tuple(range(8))
_N_REQUESTS = 60
_MAX_CYCLES = 3_000_000


def _sweep_slice():
    """The 64-instance slice: 8 mode configs x 8 trace seeds."""
    geometry = fuzz_geometry(channels=1)
    spec = SystemSpec(geometry=geometry)
    instances = []
    for label in _MODES:
        mode = MCRMode.parse(label)
        for seed in _SEEDS:
            trace = random_trace(
                random.Random(seed), geometry, _N_REQUESTS, name=f"s{seed}"
            )
            instances.append(
                BatchInstance(
                    traces=(trace,),
                    mode=mode.config,
                    spec=spec,
                    max_cycles=_MAX_CYCLES,
                )
            )
    return instances


def _median_seconds(fn, rounds):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_batch_kernel_speedup(benchmark):
    instances = _sweep_slice()

    def run_scalar_sweep():
        return [
            run_system(
                i.traces, MCRMode(i.mode), spec=i.spec, max_cycles=i.max_cycles
            )
            for i in instances
        ]

    def run_batched_sweep():
        return run_batch(instances)

    # Bit-identity first: every lane must equal its scalar run exactly
    # before the kernel's speed counts.
    scalar_results = run_scalar_sweep()
    batched_results = run_batched_sweep()
    mismatches = [
        report
        for lane, (got, want) in enumerate(zip(batched_results, scalar_results))
        if (report := diff_results(got, want, f"lane {lane}")) is not None
    ]
    assert mismatches == [], "\n".join(mismatches)

    run_once(benchmark, run_batched_sweep)
    scalar_wall = _median_seconds(run_scalar_sweep, _ROUNDS)
    batch_wall = _median_seconds(run_batched_sweep, _ROUNDS)
    speedup = scalar_wall / batch_wall

    report = emit_bench(
        "BENCH_batch.json",
        name="batch_kernel_speedup",
        wall_s=batch_wall,
        detail={
            "instances": len(instances),
            "modes": list(_MODES),
            "seeds_per_mode": len(_SEEDS),
            "n_requests": _N_REQUESTS,
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
        f"batched kernel speedup {speedup:.2f}x below the {_GATE}x gate "
        f"on the 64-instance sweep slice — see BENCH_batch.json"
    )
