"""Unit and end-to-end tests for online checking through the hub.

With ``trace`` or ``invariants`` on, the observability hub checks every
command against the :mod:`repro.verify` oracle's rule tables and hands
the oracle's gate label to the tracer.
"""

import random

import pytest

from repro.core.api import SystemSpec
from repro.core.mcr_mode import MCRMode
from repro.dram.commands import Command, CommandType
from repro.dram.config import DRAMGeometry
from repro.dram.mcr import RowClass
from repro.dram.refresh import WiringMethod
from repro.dram.timing import RowTimings, TimingDomain
from repro.obs import ObservabilityConfig, ObservabilityHub, observe_run
from repro.verify.generator import fuzz_geometry, miss_heavy_trace
from repro.verify.oracle import GATE_QUEUE, GATE_READY


def _geometry():
    return DRAMGeometry(
        channels=1,
        ranks_per_channel=2,
        banks_per_rank=4,
        rows_per_bank=2048,
        columns_per_row=32,
        rows_per_subarray=512,
        density="1Gb",
    )


def _hub():
    """A tracing hub over conventional DRAM, plus the device's domain."""
    geometry = _geometry()
    mode = MCRMode.off().config
    domain = TimingDomain(geometry, mode)
    config = ObservabilityConfig(trace=True, invariants=True)
    return ObservabilityHub(config, geometry, domain, mode), domain


def _issue(hub, cmd):
    """Feed one command through the hub; returns its traced gate."""
    hub.on_command(0, cmd, RowClass.NORMAL)
    return hub.tracer.events[-1].gate


def _act(cycle, row=5, rank=0, bank=0):
    return Command(cycle, CommandType.ACTIVATE, 0, rank=rank, bank=bank, row=row)


def _read(cycle, row=5, rank=0, bank=0, column=0):
    return Command(
        cycle, CommandType.READ, 0, rank=rank, bank=bank, row=row, column=column
    )


def _shaved_trcd(domain, cycles=6):
    """Device overrides lowering every row class's tRCD by ``cycles``."""
    return {
        row_class: RowTimings(
            t_rcd=max(1, domain.row_timings(row_class).t_rcd - cycles),
            t_ras=domain.row_timings(row_class).t_ras,
            t_rc=domain.row_timings(row_class).t_rc,
        )
        for row_class in RowClass
    }


class TestConstraintGates:
    def test_first_command_is_ready(self):
        hub, _ = _hub()
        assert _issue(hub, _act(0)) == GATE_READY
        assert hub.clean

    def test_trcd_gates_prompt_column(self):
        hub, domain = _hub()
        t_rcd = domain.row_timings(RowClass.NORMAL).t_rcd
        _issue(hub, _act(100))
        assert _issue(hub, _read(100 + t_rcd)) == "tRCD"
        assert hub.clean
        assert hub.checker.commands == 2

    def test_late_column_gate_is_queue(self):
        hub, domain = _hub()
        t_rcd = domain.row_timings(RowClass.NORMAL).t_rcd
        _issue(hub, _act(100))
        assert _issue(hub, _read(100 + t_rcd + 50)) == GATE_QUEUE
        assert hub.clean

    def test_early_column_is_violation(self):
        hub, domain = _hub()
        t_rcd = domain.row_timings(RowClass.NORMAL).t_rcd
        _issue(hub, _act(100))
        _issue(hub, _read(100 + t_rcd - 1))
        assert not hub.clean
        violation = hub.violations[0]
        assert violation.rule == "tRCD"
        assert violation.required_cycle == 100 + t_rcd
        assert "tRCD" in str(violation)

    def test_column_to_closed_bank_is_structural(self):
        hub, _ = _hub()
        _issue(hub, _read(500))
        assert [v.rule for v in hub.violations] == ["column-to-closed-bank"]

    def test_activate_open_bank_is_structural(self):
        hub, _ = _hub()
        _issue(hub, _act(0, row=1))
        _issue(hub, _act(1000, row=2))
        assert "ACT-to-open-bank" in [v.rule for v in hub.violations]

    def test_command_bus_conflict(self):
        hub, _ = _hub()
        _issue(hub, _act(100, bank=0))
        _issue(hub, _act(100, bank=1, row=9))
        assert "command-bus" in [v.rule for v in hub.violations]

    def test_check_log_replays(self):
        hub, domain = _hub()
        t_rcd = domain.row_timings(RowClass.NORMAL).t_rcd
        for cmd in [_act(0), _read(t_rcd)]:
            _issue(hub, cmd)
        assert hub.violations == []
        assert hub.checker.commands == 2


class TestObservedRuns:
    def test_clean_run_has_no_violations(self):
        rng = random.Random(11)
        geometry = fuzz_geometry(channels=1)
        result, hub = observe_run(
            [miss_heavy_trace(rng, geometry, 80)],
            "2/2x/100%reg",
            spec=SystemSpec(geometry=geometry),
            config=ObservabilityConfig.full(),
        )
        assert result.reads == 80
        assert hub.clean
        assert hub.checker.commands > 160  # ACT + RD per miss, at least
        assert len(hub.tracer) == hub.checker.commands
        gates = {event.gate for event in hub.tracer.events}
        assert gates - {GATE_READY, GATE_QUEUE}, "no timing-gated commands?"

    def test_corrupted_trcd_detected(self):
        """A deliberately corrupted device tRCD must surface as checker
        violations: the oracle checks the paper's table, not the
        device's own."""
        rng = random.Random(7)
        geometry = fuzz_geometry(channels=1)
        mode = MCRMode.off()
        _, hub = observe_run(
            [miss_heavy_trace(rng, geometry, 120)],
            mode,
            spec=SystemSpec(geometry=geometry),
            config=ObservabilityConfig(invariants=True),
            row_timing_overrides=_shaved_trcd(TimingDomain(geometry, mode.config)),
        )
        assert any(v.rule == "tRCD" for v in hub.violations)

    @pytest.mark.parametrize(
        "config",
        [ObservabilityConfig(trace=True), ObservabilityConfig(invariants=True)],
        ids=["trace", "invariants"],
    )
    def test_k_to_k_wiring_is_rejected(self, config):
        """Under K-to-K wiring tRAS comes from the circuit restore model,
        which the rule tables do not restate: fail loudly rather than
        check or label gates against the wrong table."""
        rng = random.Random(3)
        geometry = fuzz_geometry(channels=1)
        with pytest.raises(ValueError, match="WiringMethod.K_TO_K"):
            observe_run(
                [miss_heavy_trace(rng, geometry, 20)],
                "4/4x/100%reg",
                spec=SystemSpec(geometry=geometry, wiring=WiringMethod.K_TO_K),
                config=config,
            )

    def test_k_to_k_wiring_runs_without_the_checker(self):
        rng = random.Random(3)
        geometry = fuzz_geometry(channels=1)
        result, hub = observe_run(
            [miss_heavy_trace(rng, geometry, 20)],
            "4/4x/100%reg",
            spec=SystemSpec(geometry=geometry, wiring=WiringMethod.K_TO_K),
            config=ObservabilityConfig(metrics=True, profile=True),
        )
        assert result.reads == 20
        assert hub.checker is None


class TestMetricsFromRuns:
    def test_registry_covers_headline_metrics(self):
        rng = random.Random(5)
        geometry = fuzz_geometry(channels=1)
        _, hub = observe_run(
            [miss_heavy_trace(rng, geometry, 60)],
            "4/4x/100%reg",
            spec=SystemSpec(geometry=geometry),
            config=ObservabilityConfig.full(),
        )
        snap = hub.metrics_snapshot()
        for name in (
            "sim.commands",
            "sim.queue_arrivals",
            "sim.queue_depth",
            "sim.row_hits",
            "sim.row_misses",
            "sim.refresh_slots",
            "sim.avg_read_latency_cycles",
        ):
            assert name in snap, f"missing {name}"
        # Miss-heavy MCR stream: early-access events must fire.
        assert "sim.early_access_events" in snap

    def test_result_carries_metrics(self):
        geometry = fuzz_geometry(channels=1)
        rng = random.Random(2)
        result, _ = observe_run(
            [miss_heavy_trace(rng, geometry, 40)],
            "off",
            spec=SystemSpec(geometry=geometry),
            config=ObservabilityConfig(metrics=True),
        )
        assert result.metrics is not None
        assert "sim.commands" in result.metrics

    def test_metrics_do_not_change_results(self):
        from repro.core.api import run_system
        from repro.workloads import make_trace

        trace = make_trace("comm2", n_requests=200, seed=4)
        plain = run_system([trace], MCRMode.off())
        observed, hub = observe_run(
            [trace], MCRMode.off(), config=ObservabilityConfig.full()
        )
        assert observed.execution_cycles == plain.execution_cycles
        assert observed.avg_read_latency_cycles == plain.avg_read_latency_cycles
        assert observed.controller_stats == plain.controller_stats
        assert hub.clean
