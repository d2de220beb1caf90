"""Integration tests: full system simulations with online invariants."""

import pytest

from repro.core import MCRMode, SystemSpec, run_system
from repro.core.api import compare_modes
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.config import multi_core_geometry
from repro.dram.mcr import MechanismSet
from repro.obs import ObservabilityConfig
from repro.sim.engine import SimulationError, SystemSimulator
from repro.workloads import make_multiprogram_mix, make_trace


@pytest.fixture(scope="module")
def small_trace():
    return make_trace("mummer", n_requests=1200, seed=9)


class TestBaselineRun:
    def test_completes_and_counts(self, small_trace):
        result = run_system([small_trace], MCRMode.off())
        assert result.execution_cycles > 0
        assert result.reads + result.writes == len(small_trace)
        assert result.avg_read_latency_cycles > 15  # beyond raw CAS+burst
        assert result.instructions == small_trace.instruction_count
        assert result.mode_label == "[off]"

    def test_deterministic(self, small_trace):
        a = run_system([small_trace], MCRMode.off())
        b = run_system([small_trace], MCRMode.off())
        assert a.execution_cycles == b.execution_cycles
        assert a.avg_read_latency_cycles == b.avg_read_latency_cycles
        assert a.total_energy_j == pytest.approx(b.total_energy_j)

    def test_read_latency_floor(self, small_trace):
        # No read can beat ACT->RD->data = tRCD + tCAS + tBURST = 26.
        result = run_system([small_trace], MCRMode.off())
        assert result.avg_read_latency_cycles >= 26


class TestMCRSpeedup:
    def test_4_4x_faster_than_baseline(self, small_trace):
        spec = SystemSpec(allocation="collision-free")
        base = run_system([small_trace], MCRMode.off())
        mcr = run_system([small_trace], MCRMode.parse("4/4x/100%reg"), spec=spec)
        assert mcr.execution_cycles < base.execution_cycles
        assert mcr.avg_read_latency_cycles < base.avg_read_latency_cycles

    def test_mode_ordering(self, small_trace):
        """4/4x <= 2/2x <= baseline in execution time (EA+EP, full region)."""
        spec = SystemSpec(allocation="collision-free")
        base = run_system([small_trace], MCRMode.off())
        two = run_system([small_trace], MCRMode.parse("2/2x/100%reg"), spec=spec)
        four = run_system([small_trace], MCRMode.parse("4/4x/100%reg"), spec=spec)
        assert four.execution_cycles <= two.execution_cycles
        assert two.execution_cycles < base.execution_cycles

    def test_compare_modes_helper(self, small_trace):
        comparisons = compare_modes(
            [small_trace],
            ["2/2x/100%reg", "4/4x/100%reg"],
            spec=SystemSpec(allocation="collision-free"),
        )
        assert len(comparisons) == 2
        assert comparisons[1].execution_time_reduction_pct > 0


class TestOnlineInvariants:
    """The online checker validates every command as it issues — the
    same property a post-hoc ``replay_commands`` pass asserts, but
    without recording the command log first."""

    @pytest.mark.parametrize(
        "mode_text,mech",
        [
            ("off", None),
            ("4/4x/100%reg", None),
            ("2/4x/50%reg", None),
            ("2/2x/75%reg", MechanismSet.access_only()),
            ("1/4x/100%reg", None),
        ],
    )
    def test_no_timing_violations(self, mode_text, mech):
        trace = make_trace("comm1", n_requests=800, seed=4)
        mode = MCRMode.parse(mode_text, mechanisms=mech) if mode_text != "off" else MCRMode.off()
        sim = SystemSimulator(
            [trace],
            mode.config,
            observability=ObservabilityConfig(invariants=True),
        )
        sim.run()
        assert sim.obs.checker.commands > 0, "no commands checked"
        assert sim.obs.clean, f"violations: {[str(v) for v in sim.obs.violations[:5]]}"

    def test_multicore_checked_online(self):
        geometry = multi_core_geometry()
        traces = make_multiprogram_mix(
            ["comm1", "libq", "stream", "tigr"], 600, seed=2, geometry=geometry
        )
        mode = MCRMode.parse("2/4x/75%reg")
        sim = SystemSimulator(
            traces,
            mode.config,
            geometry=geometry,
            observability=ObservabilityConfig(invariants=True),
        )
        sim.run()
        assert sim.obs.checker.commands > 0
        assert sim.obs.clean, f"violations: {[str(v) for v in sim.obs.violations[:5]]}"


class TestMulticore:
    def test_four_cores_complete(self):
        geometry = multi_core_geometry()
        traces = make_multiprogram_mix(
            ["comm2", "leslie", "freq", "mummer"], 700, seed=6, geometry=geometry
        )
        result = run_system(traces, MCRMode.off(), spec=SystemSpec(geometry=geometry))
        assert len(result.per_core_cycles) == 4
        assert result.execution_cycles == max(result.per_core_cycles)
        assert result.reads > 0


class TestRefreshImpact:
    def test_refresh_costs_time(self, small_trace):
        with_refresh = run_system([small_trace], MCRMode.off())
        without = run_system(
            [small_trace], MCRMode.off(), spec=SystemSpec(refresh_enabled=False)
        )
        assert without.execution_cycles <= with_refresh.execution_cycles

    def test_refreshes_issued_proportional_to_runtime(self, small_trace):
        result = run_system([small_trace], MCRMode.off())
        stats = result.controller_stats[0]
        t_refi = 6250
        expected = result.execution_cycles // t_refi * 2  # 2 ranks
        issued = stats["refresh"]["issued_normal"]
        assert abs(issued - expected) <= 18  # postponement slack


class TestEdgeCases:
    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            SystemSimulator([], MCRMode.off().config)

    def test_max_cycles_guard(self, small_trace):
        with pytest.raises(SimulationError):
            run_system([small_trace], MCRMode.off(), max_cycles=10)

    def test_single_request_trace(self):
        trace = Trace(name="one", entries=[TraceEntry(0, False, 0)])
        result = run_system([trace], MCRMode.off())
        assert result.reads == 1
        assert result.execution_cycles >= 26 // 1

    def test_write_only_trace(self):
        entries = [TraceEntry(2, True, i * 64) for i in range(50)]
        trace = Trace(name="writes", entries=entries)
        result = run_system([trace], MCRMode.off())
        assert result.writes == 50
        assert result.avg_read_latency_cycles == 0.0

    def test_tiny_queue_backpressure(self):
        # A burst of reads against a small read queue must still complete.
        entries = [TraceEntry(0, False, i * 64) for i in range(100)]
        trace = Trace(name="burst", entries=entries)
        result = run_system([trace], MCRMode.off())
        assert result.reads == 100

    def test_deadlock_message_survives_unset_block_reason(self):
        """The deadlock diagnostic must not itself crash when a core is
        stuck without a ``blocked`` reason (``blocked is None`` used to
        raise AttributeError, masking the real failure)."""

        class _StuckCore:
            finished = False
            blocked = None

            def advance(self, now_cpu):
                class _Result:
                    wake_cpu = None

                return _Result()

        trace = Trace(name="one", entries=[TraceEntry(0, False, 0)])
        sim = SystemSimulator([trace], MCRMode.off().config, refresh_enabled=False)
        sim.cores[0] = _StuckCore()
        with pytest.raises(SimulationError, match=r"deadlock.*blocked=\['None'\]"):
            sim.run()


class TestEnergyAccounting:
    def test_energy_positive_and_bounded(self, small_trace):
        result = run_system([small_trace], MCRMode.off())
        assert result.total_energy_j > 0
        # Sanity: average power below 100 W for a DIMM.
        seconds = result.execution_cycles * 1.25e-9
        assert result.total_energy_j / seconds < 100

    def test_mcr_improves_edp(self, small_trace):
        spec = SystemSpec(allocation="collision-free")
        base = run_system([small_trace], MCRMode.off())
        mcr = run_system([small_trace], MCRMode.parse("4/4x/100%reg"), spec=spec)
        assert mcr.edp < base.edp
