"""Property-style integration tests of the full simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MCRMode, SystemSpec, run_system
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.config import DRAMGeometry
from repro.obs import ObservabilityConfig
from repro.sim.engine import SystemSimulator
from repro.workloads import make_trace


def small_geometry(channels=2):
    """A tiny multi-channel device to exercise channel routing."""
    return DRAMGeometry(
        channels=channels,
        ranks_per_channel=2,
        banks_per_rank=4,
        rows_per_bank=2048,
        columns_per_row=32,
        rows_per_subarray=512,
        density="1Gb",
    )


@st.composite
def tiny_traces(draw):
    n = draw(st.integers(20, 120))
    geometry = small_geometry()
    entries = []
    for _ in range(n):
        gap = draw(st.integers(0, 30))
        is_write = draw(st.booleans())
        address = draw(
            st.integers(0, geometry.capacity_bytes // 64 - 1)
        ) * 64
        entries.append(TraceEntry(gap=gap, is_write=is_write, address=address))
    return Trace(name="hyp", entries=entries)


class TestMultiChannel:
    def test_two_channel_run_completes(self):
        geometry = small_geometry(channels=2)
        trace = make_trace("comm1", n_requests=800, seed=13, geometry=geometry)
        result = run_system(
            [trace], MCRMode.off(), spec=SystemSpec(geometry=geometry)
        )
        assert result.reads + result.writes == 800
        # Both channels saw traffic.
        reads_per_channel = [s["reads"] + s["writes"] for s in result.controller_stats]
        assert len(reads_per_channel) == 2
        assert all(n > 0 for n in reads_per_channel)

    def test_two_channel_checked_online(self):
        geometry = small_geometry(channels=2)
        trace = make_trace("libq", n_requests=500, seed=3, geometry=geometry)
        mode = MCRMode.parse("2/2x/50%reg")
        sim = SystemSimulator(
            [trace],
            mode.config,
            geometry=geometry,
            observability=ObservabilityConfig(invariants=True),
        )
        sim.run()
        assert sim.obs.checker.commands > 0
        assert sim.obs.clean, [str(v) for v in sim.obs.violations[:3]]


class TestConservation:
    @settings(max_examples=12, deadline=None)
    @given(tiny_traces(), st.sampled_from(["off", "2/2x/100%reg", "4/4x/100%reg"]))
    def test_every_request_serviced_and_audited(self, trace, mode_text):
        geometry = small_geometry()
        mode = MCRMode.parse(mode_text)
        sim = SystemSimulator(
            [trace],
            mode.config,
            geometry=geometry,
            observability=ObservabilityConfig(invariants=True),
        )
        result = sim.run(max_cycles=3_000_000)
        reads = sum(1 for e in trace.entries if not e.is_write)
        writes = len(trace.entries) - reads
        assert result.reads == reads
        assert result.writes == writes
        # Column commands: every read serviced; writes may still be queued
        # at the instant the last core finishes, but never more than the
        # queue capacity.
        read_cas = sum(c.channel.read_count for c in sim.controllers)
        write_cas = sum(c.channel.write_count for c in sim.controllers)
        assert read_cas == reads
        assert writes - 32 * geometry.channels <= write_cas <= writes
        assert sim.obs.clean

    @settings(max_examples=6, deadline=None)
    @given(tiny_traces())
    def test_determinism_property(self, trace):
        geometry = small_geometry()
        a = run_system([trace], MCRMode.off(), spec=SystemSpec(geometry=geometry))
        b = run_system([trace], MCRMode.off(), spec=SystemSpec(geometry=geometry))
        assert a.execution_cycles == b.execution_cycles
        assert a.controller_stats == b.controller_stats


class TestLatencyInvariants:
    def test_mcr_latency_never_worse_on_pure_misses(self):
        """A miss-only stream (unique rows, EA+EP, full region) must see
        strictly lower average latency under 4/4x."""
        geometry = small_geometry(channels=1)
        entries = [
            TraceEntry(gap=60, is_write=False, address=(i * 33 % 1024) * 2048 * 8)
            for i in range(300)
        ]
        trace = Trace(name="misses", entries=entries)
        base = run_system([trace], MCRMode.off(), spec=SystemSpec(geometry=geometry))
        mcr = run_system(
            [trace],
            MCRMode.parse("4/4x/100%reg"),
            spec=SystemSpec(geometry=geometry, allocation="collision-free"),
        )
        assert mcr.avg_read_latency_cycles < base.avg_read_latency_cycles

    def test_row_hit_latency_unchanged_by_mcr(self):
        """Row hits bypass ACT, so a hit-dominated stream gains little —
        the asymmetry the paper's Fig. 11 relies on."""
        geometry = small_geometry(channels=1)
        entries = [
            TraceEntry(gap=60, is_write=False, address=i % 32 * 64)
            for i in range(300)
        ]
        trace = Trace(name="hits", entries=entries)
        base = run_system([trace], MCRMode.off(), spec=SystemSpec(geometry=geometry))
        mcr = run_system(
            [trace],
            MCRMode.parse("4/4x/100%reg"),
            spec=SystemSpec(geometry=geometry, allocation="collision-free"),
        )
        # Gains exist (refresh is faster) but must be small.
        delta = (
            base.avg_read_latency_cycles - mcr.avg_read_latency_cycles
        ) / base.avg_read_latency_cycles
        assert delta < 0.05
