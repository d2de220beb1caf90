"""Bench: observability must be affordable on the batched kernel.

The per-lane metric mirrors (``BatchInstance(metrics=True)``) must stay
within 5% of a metrics-off batch of the same instances — lifting the
batch observability blackout cannot tax the path that exists purely for
throughput. Full scalar instrumentation (trace, metrics, invariants and
the request-lifecycle profiler) reports its multiplier for context.

There is no gate on the scalar engine with observability off: its hook
sites cost one ``is not None`` branch each, below the run-to-run noise
of any wall-time comparison.

Writes ``BENCH_obs.json`` at the repo root via :mod:`_emit`.
"""

import json
import statistics
import time

from _emit import emit_bench
from conftest import run_once

from repro.batch import BatchInstance, run_batch
from repro.core import MCRMode, run_system
from repro.obs import ObservabilityConfig, observe_run
from repro.workloads import make_trace

_REQUESTS = 2500
_ROUNDS = 5


def _trace():
    return make_trace("comm2", n_requests=_REQUESTS, seed=7)


def _median_seconds(fn, rounds=_ROUNDS):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_batch_metrics_mirror_overhead(benchmark):
    """Per-lane metric mirrors on the batched kernel stay within 5% of a
    metrics-off batch of the same instances."""
    modes = ("off", "4/4x/100%reg", "4/4x/50%reg", "2/2x/100%reg")
    traces = [make_trace("comm2", n_requests=_REQUESTS, seed=s) for s in range(4)]

    def instances(metrics):
        return [
            BatchInstance(
                traces=(trace,), mode=MCRMode.parse(mode), metrics=metrics
            )
            for trace in traces
            for mode in modes
        ]

    def plain():
        return run_batch(instances(False))

    def mirrored():
        return run_batch(instances(True))

    baseline = _median_seconds(plain, rounds=3)
    results = run_once(benchmark, mirrored)
    assert all(r.metrics is not None for r in results)
    with_metrics = _median_seconds(mirrored, rounds=3)
    overhead_pct = (with_metrics / baseline - 1.0) * 100
    report = emit_bench(
        "BENCH_obs.json",
        name="obs_batch_metrics_overhead",
        wall_s=with_metrics,
        overhead_pct=overhead_pct,
        detail={
            "baseline_s": round(baseline, 3),
            "lanes": len(instances(False)),
            "requests": _REQUESTS,
            "rounds": 3,
            "gate_pct": 5.0,
        },
    )
    print()
    print(json.dumps(report, indent=2))
    assert with_metrics <= baseline * 1.05, (
        f"batch metric mirrors cost {overhead_pct:.1f}% "
        f"({with_metrics:.3f}s vs {baseline:.3f}s metrics-off)"
    )


def test_observability_on_cost_reported(benchmark):
    """Full instrumentation (trace + metrics + invariants + profiler)
    runs correctly and reports its multiplier; it is diagnostic tooling,
    so the bar is only that it completes and stays within an order of
    magnitude."""
    trace = _trace()
    mode = MCRMode.off()

    baseline = _median_seconds(lambda: run_system([trace], mode), rounds=3)

    def observed():
        result, hub = observe_run(
            [trace], mode, config=ObservabilityConfig.full()
        )
        assert hub.clean
        assert hub.profiler is not None and hub.profiler.conserved
        return result

    result = run_once(benchmark, observed)
    assert result.metrics is not None
    assert result.profile is not None
    enabled = _median_seconds(observed, rounds=3)
    print(f"\nobservability-on multiplier: {enabled / baseline:.2f}x")
    assert enabled < baseline * 10
