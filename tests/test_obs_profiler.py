"""Tests for the request-lifecycle profiler.

The load-bearing property is **conservation**: every profiled request's
latency components must sum *exactly* to its end-to-end latency — not
approximately, not within a tolerance. The decomposition is built as an
interval partition of ``[arrival, complete)``, so any gap or overlap is
a bug. The property is fuzzed here over random multi-bank, multi-channel
traces in both baseline and MCR modes (the ``obs-transparent`` identity
of ``python -m repro.verify`` checks it further on sampled
configurations).
"""

import random

import pytest

from repro.core.mcr_mode import MCRMode
from repro.obs import ObservabilityConfig, format_profile, observe_run
from repro.verify.generator import fuzz_geometry, miss_heavy_trace, random_trace
from repro.obs.profiler import (
    COMPONENTS,
    PROFILE_SCHEMA_VERSION,
    _IntervalLog,
    _subtract,
    exact_percentile,
)


def _profiled_run(traces, mode, geometry=None, **config_kwargs):
    from repro.core.api import SystemSpec

    spec = SystemSpec(geometry=geometry) if geometry is not None else None
    return observe_run(
        traces,
        mode,
        spec=spec,
        config=ObservabilityConfig(profile=True, metrics=True, **config_kwargs),
        max_cycles=3_000_000,
    )


class TestConservation:
    """components sum exactly to latency, for every request, always."""

    @pytest.mark.parametrize("mode_text", ["off", "4/4x/100%reg", "2/2x/50%reg"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzzed_multibank_runs_conserve(self, mode_text, seed):
        rng = random.Random(seed)
        geometry = fuzz_geometry(channels=2)
        traces = [
            random_trace(rng, geometry, 150, name=f"t{i}") for i in range(2)
        ]
        _, hub = _profiled_run(traces, MCRMode.parse(mode_text), geometry)
        profiler = hub.profiler
        assert profiler.served > 0
        bad = [p for p in profiler.profiles if not p.conserved]
        assert not bad, (
            f"non-conserved profiles: "
            f"{[(p.req_id, p.latency, p.components) for p in bad[:3]]}"
        )
        assert profiler.conserved
        # The aggregate totals partition total latency the same way.
        assert sum(profiler.totals.values()) == profiler.latency_total

    def test_miss_heavy_stream_charges_trcd(self):
        rng = random.Random(7)
        geometry = fuzz_geometry(channels=1)
        trace = miss_heavy_trace(rng, geometry, 120)
        _, hub = _profiled_run([trace], MCRMode.off(), geometry)
        snap = hub.profiler.snapshot()
        assert snap["conserved"]
        # Nearly every access is a row miss: sensing time must show up.
        assert snap["components"]["trcd"] > 0
        assert snap["components"]["cas_burst"] > 0


class TestSnapshot:
    def test_schema_and_groups(self):
        rng = random.Random(3)
        geometry = fuzz_geometry(channels=1)
        trace = random_trace(rng, geometry, 120)
        _, hub = _profiled_run([trace], MCRMode.parse("4/4x/100%reg"), geometry)
        snap = hub.profiler.snapshot()
        assert snap["schema"] == PROFILE_SCHEMA_VERSION
        assert set(snap["components"]) == set(COMPONENTS)
        assert snap["requests"]["served"] == snap["requests"]["profiled"]
        assert snap["requests"]["dropped"] == 0
        # Per-(bank, row class, op) cells carry counts and percentiles
        # that add back up to the run totals.
        assert sum(g["count"] for g in snap["groups"]) == snap["requests"]["served"]
        for group in snap["groups"]:
            assert {"p50", "p95", "p99"} <= set(group)
            assert group["p50"] <= group["p95"] <= group["p99"]
            assert group["op"] in ("read", "write")
        text = format_profile(snap)
        assert "CONSERVATION VIOLATED" not in text
        assert "cas_burst" in text

    def test_custom_quantiles(self):
        rng = random.Random(4)
        geometry = fuzz_geometry(channels=1)
        trace = random_trace(rng, geometry, 80)
        _, hub = _profiled_run(
            [trace],
            MCRMode.off(),
            geometry,
            quantiles=(0.5, 0.9),
        )
        snap = hub.profiler.snapshot()
        assert snap["quantiles"] == [0.5, 0.9]
        assert all({"p50", "p90"} <= set(g) for g in snap["groups"])

    def test_max_profiles_caps_storage_not_aggregates(self):
        rng = random.Random(5)
        geometry = fuzz_geometry(channels=1)
        trace = random_trace(rng, geometry, 100)
        _, hub = _profiled_run(
            [trace], MCRMode.off(), geometry, max_profiles=10
        )
        profiler = hub.profiler
        assert len(profiler.profiles) == 10
        assert profiler.dropped == profiler.served - 10
        snap = hub.profiler.snapshot()
        # Aggregates keep accumulating past the cap.
        assert snap["requests"]["served"] > 10
        assert sum(g["count"] for g in snap["groups"]) == snap["requests"]["served"]


class TestPrimitives:
    def test_exact_percentile_nearest_rank(self):
        values = [10, 20, 30, 40, 50]
        assert exact_percentile(values, 0.0) == 10
        assert exact_percentile(values, 0.5) == 30
        assert exact_percentile(values, 1.0) == 50
        assert exact_percentile([42], 0.95) == 42

    def test_interval_subtraction_is_exact(self):
        # [0, 100) minus cuts [10, 20) and [50, 60): removed 20, kept 80.
        removed, leftover = _subtract([(0, 100)], [(10, 20), (50, 60)])
        assert removed == 20
        assert leftover == [(0, 10), (20, 50), (60, 100)]
        assert removed + sum(e - s for s, e in leftover) == 100

    def test_interval_log_range_query(self):
        log = _IntervalLog()
        log.add(10, 20)
        log.add(40, 50)
        log.add(90, 95)
        assert log.overlapping(15, 45) == [(10, 20), (40, 50)]
        assert log.overlapping(60, 80) == []
