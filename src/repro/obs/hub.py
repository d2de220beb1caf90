"""The observability hub: one object wiring tracer, metrics and checker.

The simulator owns at most one :class:`ObservabilityHub` per run. Each
memory controller gets a :class:`ChannelObserver` bound to its channel
index; the controller calls it (behind a single ``is not None`` check,
so disabled observability costs one branch per command) with every
issued command and every accepted request. The hub fans those events out
to whichever components the :class:`ObservabilityConfig` enabled:

- the **checker** is the differential oracle
  (:class:`~repro.verify.oracle.ProtocolOracle`): it validates every
  command against the paper's and JEDEC's rule tables, never against the
  simulated device's own :class:`~repro.dram.timing.TimingDomain`, and
  names the constraint that gated it;
- the **tracer** records the command with that gate label;
- the **metrics registry** counts commands, classifies request arrivals
  (row hit / conflict / closed bank), samples queue depths, and detects
  sense-amp early-access events (an MCR-row column command issued before
  the *normal* tRCD would have allowed).

``finalize`` runs the oracle's end-of-run refresh audit and folds
end-of-run controller counters (refresh slot mix, row hit totals,
latency aggregates) into the registry so a single snapshot describes
the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.dram.commands import Command
from repro.dram.config import DRAMGeometry
from repro.dram.mcr import MCRModeConfig, RowClass
from repro.dram.timing import TimingDomain
from repro.obs.metrics import DEFAULT_QUANTILES, MetricsRegistry
from repro.obs.profiler import RequestProfiler
from repro.obs.tracer import CommandTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.request import MemoryRequest
    from repro.mechanisms.base import MechanismSpec
    from repro.sim.results import RunResult
    from repro.verify.oracle import OracleViolation

#: Queue-depth histogram buckets (queues are 32 entries).
_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 24, 32)


@dataclass(frozen=True, slots=True)
class ObservabilityConfig:
    """What to observe during a run.

    Attributes:
        trace: Record the command stream (implies running the oracle
            for gate labels).
        metrics: Collect the metrics registry.
        invariants: Check every command online against the
            :mod:`repro.verify` oracle's rule tables.
        profile: Build per-request latency-attribution profiles
            (:mod:`repro.obs.profiler`).
        max_trace_events: Cap on stored trace events (None = unbounded).
        max_profiles: Cap on stored per-request profiles (aggregates keep
            accumulating past the cap; None = unbounded).
        quantiles: Percentiles reported by profile and histogram
            snapshots (p50/p95/p99 by default).
        command_sink: Optional callable ``(channel, cmd, row_class)``
            invoked with every issued command. This is the raw
            command-stream tap external checkers attach to (the
            differential fuzz loop in :mod:`repro.verify` drives its own
            oracle through it); a sink-only config runs no checker.
    """

    trace: bool = False
    metrics: bool = False
    invariants: bool = False
    profile: bool = False
    max_trace_events: int | None = None
    max_profiles: int | None = None
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    command_sink: Callable[[int, Command, RowClass | None], None] | None = None

    @property
    def enabled(self) -> bool:
        return (
            self.trace
            or self.metrics
            or self.invariants
            or self.profile
            or self.command_sink is not None
        )

    @classmethod
    def full(cls, **overrides) -> "ObservabilityConfig":
        """Everything on — the CLI ``trace`` command's default."""
        merged = {
            "trace": True,
            "metrics": True,
            "invariants": True,
            "profile": True,
        }
        merged.update(overrides)
        return cls(**merged)


class ChannelObserver:
    """Per-channel adapter the controller calls into."""

    __slots__ = ("hub", "channel")

    def __init__(self, hub: "ObservabilityHub", channel: int) -> None:
        self.hub = hub
        self.channel = channel

    def on_command(self, cmd: Command, row_class: RowClass | None) -> None:
        self.hub.on_command(self.channel, cmd, row_class)

    def on_enqueue(
        self,
        request: "MemoryRequest",
        read_depth: int,
        write_depth: int,
        open_row: int | None,
    ) -> None:
        self.hub.on_enqueue(self.channel, request, read_depth, write_depth, open_row)

    def on_request_served(self, request: "MemoryRequest") -> None:
        self.hub.on_request_served(self.channel, request)

    def on_drain(self, cycle: int, draining: bool) -> None:
        self.hub.on_drain(self.channel, cycle, draining)


class ObservabilityHub:
    """All observability state for one simulation run."""

    def __init__(
        self,
        config: ObservabilityConfig,
        geometry: DRAMGeometry,
        domain: TimingDomain,
        mode: MCRModeConfig,
        mechanism: "MechanismSpec | None" = None,
        refresh_enabled: bool = True,
    ) -> None:
        self.config = config
        self.geometry = geometry
        self.domain = domain
        self.mode = mode
        self.tracer = (
            CommandTracer(max_events=config.max_trace_events) if config.trace else None
        )
        self.registry = MetricsRegistry() if config.metrics else None
        self.profiler = (
            RequestProfiler(
                domain,
                quantiles=config.quantiles,
                max_profiles=config.max_profiles,
            )
            if config.profile
            else None
        )
        # The oracle runs whenever gates are needed (tracing) or checking
        # was asked for; violations are collected either way. Imported
        # here so that runs without either never load repro.verify.
        self.checker = None
        if config.trace or config.invariants:
            from repro.verify.oracle import ProtocolOracle
            from repro.verify.rules import oracle_config

            self.checker = ProtocolOracle(
                oracle_config(geometry, mode, mechanism, wiring=domain.wiring),
                channels=geometry.channels,
                refresh_enabled=refresh_enabled,
            )
        self._normal_trcd = domain.row_timings(RowClass.NORMAL).t_rcd
        #: (channel, rank, bank) -> ACT cycle, for early-access detection.
        self._last_act: dict[tuple[int, int, int], int] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Event sinks
    # ------------------------------------------------------------------

    def channel_observer(self, channel: int) -> ChannelObserver:
        return ChannelObserver(self, channel)

    def on_command(
        self, channel: int, cmd: Command, row_class: RowClass | None
    ) -> None:
        gate = ""
        if self.checker is not None:
            gate = self.checker.check(channel, cmd)
        registry = self.registry
        if registry is not None:
            registry.counter("sim.commands", channel=channel, kind=cmd.kind.name).inc()
            kind = cmd.kind.name
            if kind == "ACTIVATE":
                self._last_act[(channel, cmd.rank, cmd.bank)] = cmd.cycle
            elif kind in ("READ", "WRITE") and row_class not in (None, RowClass.NORMAL):
                act = self._last_act.get((channel, cmd.rank, cmd.bank))
                if act is not None and cmd.cycle - act < self._normal_trcd:
                    # The sense amps were accessed before a normal row
                    # would have finished sensing — Early-Access at work.
                    registry.counter("sim.early_access_events", channel=channel).inc()
        if self.tracer is not None:
            self.tracer.record(channel, cmd, row_class, gate)
        if self.profiler is not None:
            self.profiler.on_command(channel, cmd, row_class)
        if self.config.command_sink is not None:
            self.config.command_sink(channel, cmd, row_class)

    def on_enqueue(
        self,
        channel: int,
        request: "MemoryRequest",
        read_depth: int,
        write_depth: int,
        open_row: int | None,
    ) -> None:
        if self.profiler is not None:
            self.profiler.on_enqueue(channel, request, open_row)
        registry = self.registry
        if registry is None:
            return
        if open_row is None:
            outcome = "closed"
        elif open_row == request.row:
            outcome = "hit"
        else:
            outcome = "conflict"
        registry.counter(
            "sim.queue_arrivals", channel=channel, bank=request.bank, outcome=outcome
        ).inc()
        registry.histogram(
            "sim.queue_depth", buckets=_DEPTH_BUCKETS, channel=channel, queue="read"
        ).observe(read_depth)
        registry.histogram(
            "sim.queue_depth", buckets=_DEPTH_BUCKETS, channel=channel, queue="write"
        ).observe(write_depth)

    def on_request_served(self, channel: int, request: "MemoryRequest") -> None:
        if self.profiler is not None:
            self.profiler.on_request_served(channel, request)

    def on_drain(self, channel: int, cycle: int, draining: bool) -> None:
        if self.profiler is not None:
            self.profiler.on_drain(channel, cycle, draining)

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def finalize(self, controllers: Sequence) -> None:
        """Run the oracle's end-of-run refresh audit and fold end-of-run
        controller counters into the registry; later calls are no-ops."""
        if self._finalized:
            return
        self._finalized = True
        if self.checker is not None:
            self.checker.finalize()
        if self.registry is None:
            return
        for channel, controller in enumerate(controllers):
            stats = controller.stats()
            self.registry.counter("sim.row_hits", channel=channel).inc(
                stats["row_hits"]
            )
            self.registry.counter("sim.row_misses", channel=channel).inc(
                controller.row_misses
            )
            for key, value in controller.refresh.issued_counts().items():
                self.registry.counter(
                    "sim.refresh_slots", channel=channel, kind=key
                ).inc(value)
            self.registry.gauge("sim.avg_read_latency_cycles", channel=channel).set(
                controller.average_read_latency()
            )

    def metrics_snapshot(self) -> dict | None:
        return self.registry.snapshot() if self.registry is not None else None

    def profile_snapshot(self) -> dict | None:
        return self.profiler.snapshot() if self.profiler is not None else None

    @property
    def violations(self) -> list["OracleViolation"]:
        return self.checker.violations if self.checker is not None else []

    @property
    def clean(self) -> bool:
        return not self.violations


def observe_run(
    traces: Sequence,
    mode,
    spec=None,
    config: ObservabilityConfig | None = None,
    max_cycles: int | None = None,
    **sim_kwargs,
) -> tuple["RunResult", ObservabilityHub]:
    """Run a simulation with observability and return ``(result, hub)``.

    The counterpart of :func:`repro.core.api.run_system` for observed
    runs; extra ``sim_kwargs`` pass straight to
    :class:`~repro.sim.engine.SystemSimulator` (e.g.
    ``row_timing_overrides`` to corrupt the device under the checker).
    """
    # Imported here: core.api imports sim.engine, which imports this
    # module — a module-level import would be circular.
    from repro.core.api import SystemSpec, _build_remapper
    from repro.core.mcr_mode import MCRMode
    from repro.sim.engine import SystemSimulator

    if isinstance(mode, str):
        mode = MCRMode.parse(mode)
    spec = spec if spec is not None else SystemSpec()
    config = config if config is not None else ObservabilityConfig.full()
    simulator = SystemSimulator(
        traces,
        mode.config,
        geometry=spec.geometry,
        row_remapper=_build_remapper(spec, traces, mode),
        mapping=spec.mapping,
        refresh_enabled=spec.refresh_enabled,
        core_params=spec.core_params,
        idd=spec.idd,
        wiring=spec.wiring,
        policy=spec.policy,
        observability=config,
        mechanism=spec.mechanism,
        **sim_kwargs,
    )
    result = simulator.run(max_cycles=max_cycles)
    assert simulator.obs is not None
    return result, simulator.obs


__all__ = [
    "ChannelObserver",
    "ObservabilityConfig",
    "ObservabilityHub",
    "observe_run",
]
