"""Edge-case tests for the observability hub and channel observers."""

from repro.core.mcr_mode import MCRMode
from repro.dram.commands import Command, CommandType
from repro.dram.config import single_core_geometry
from repro.dram.timing import TimingDomain
from repro.obs import ObservabilityConfig, ObservabilityHub, observe_run
from repro.workloads import make_trace


def _hub(config: ObservabilityConfig) -> ObservabilityHub:
    geometry = single_core_geometry()
    mode = MCRMode.off().config
    return ObservabilityHub(config, geometry, TimingDomain(geometry, mode), mode)


class _FakeRequest:
    """Just enough of a MemoryRequest for on_enqueue."""

    def __init__(self, bank=0, row=0):
        self.bank = bank
        self.row = row
        self.req_id = 1


class TestDisabledComponents:
    def test_on_enqueue_noop_without_registry_or_profiler(self):
        """A hub with only invariants on must ignore queue events — no
        registry writes, no profiler state, no crash."""
        hub = _hub(ObservabilityConfig(invariants=True))
        assert hub.registry is None
        assert hub.profiler is None
        observer = hub.channel_observer(0)
        observer.on_enqueue(_FakeRequest(), 3, 1, open_row=None)
        observer.on_drain(100, True)
        # Safe even with a None payload: the profiler guard short-circuits.
        hub.on_request_served(0, None)
        assert hub.metrics_snapshot() is None
        assert hub.profile_snapshot() is None

    def test_trace_only_hub_skips_metrics_paths(self):
        hub = _hub(ObservabilityConfig(trace=True))
        assert hub.registry is None
        assert hub.checker is not None  # gates need the oracle
        hub.channel_observer(0).on_enqueue(_FakeRequest(), 1, 0, open_row=5)
        assert hub.metrics_snapshot() is None


class TestMultiChannelIsolation:
    def test_enqueue_labels_keep_channels_apart(self):
        hub = _hub(ObservabilityConfig(metrics=True))
        hub.channel_observer(0).on_enqueue(_FakeRequest(bank=2), 1, 0, None)
        hub.channel_observer(1).on_enqueue(_FakeRequest(bank=2), 1, 0, None)
        hub.channel_observer(1).on_enqueue(_FakeRequest(bank=2), 2, 0, None)
        snap = hub.metrics_snapshot()
        arrivals = {
            s["labels"]["channel"]: s["value"]
            for s in snap["sim.queue_arrivals"]["series"]
        }
        assert arrivals == {"0": 1, "1": 2}

    def test_observed_multichannel_run_isolates_channels(self):
        import random

        from repro.core.api import SystemSpec
        from repro.verify.generator import fuzz_geometry, random_trace

        geometry = fuzz_geometry(channels=2)
        traces = [random_trace(random.Random(21), geometry, 120)]
        _, hub = observe_run(
            traces,
            MCRMode.off(),
            spec=SystemSpec(geometry=geometry),
            config=ObservabilityConfig(metrics=True, profile=True),
        )
        snap = hub.metrics_snapshot()
        channels = {
            s["labels"]["channel"] for s in snap["sim.commands"]["series"]
        }
        assert channels == {"0", "1"}
        # Profiler groups carry the channel too, and never mix.
        profile = hub.profile_snapshot()
        assert {g["channel"] for g in profile["groups"]} == {0, 1}


class TestFinalize:
    def test_finalize_twice_folds_counters_once(self):
        traces = [make_trace("comm2", n_requests=60, seed=22)]
        _, hub = observe_run(
            traces, MCRMode.off(), config=ObservabilityConfig(metrics=True)
        )
        first = hub.metrics_snapshot()
        # The engine already finalized; a second finalize must be a no-op,
        # not double the refresh/row-hit counters.
        hub.finalize(controllers=[])
        assert hub.metrics_snapshot() == first

    def test_finalize_twice_audits_refresh_once(self):
        """finalize runs the oracle's end-of-run refresh audit; a second
        call must not append its findings again."""
        hub = _hub(ObservabilityConfig(invariants=True))
        starved = 40 * hub.domain.base.t_refi  # no REFRESH in 40 slots
        hub.on_command(
            0, Command(starved, CommandType.ACTIVATE, 0, rank=0, bank=0, row=1), None
        )
        hub.finalize(controllers=[])
        first = list(hub.violations)
        assert "refresh-starvation" in {v.rule for v in first}
        hub.finalize(controllers=[])
        assert hub.violations == first

    def test_finalize_without_registry_is_noop(self):
        hub = _hub(ObservabilityConfig(invariants=True))
        hub.finalize(controllers=[])
        hub.finalize(controllers=[])
        assert hub.metrics_snapshot() is None
