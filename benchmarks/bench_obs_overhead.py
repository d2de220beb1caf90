"""Bench: what full observability costs on the scalar engine.

Full instrumentation (trace, metrics, invariants and the
request-lifecycle profiler) reports its multiplier for context.

There is no gate on the scalar engine with observability off: its hook
sites cost one ``is not None`` branch each, below the run-to-run noise
of any wall-time comparison.
"""

import statistics
import time

from conftest import run_once

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
