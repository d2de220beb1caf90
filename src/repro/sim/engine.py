"""The event-driven system simulator.

Time is carried as memory-bus cycles. Controllers act at integer cycles;
cores live at CPU granularity (4 CPU cycles per memory cycle), so core
events land on quarter-cycle boundaries — all exactly representable as
binary floats, keeping runs deterministic.

Event processing order at equal time: data completions first (they free
ROB entries and queue slots), then cores (they emit new requests), then
controllers (they see the freshest queues). A controller issues at most
one command per invocation, matching the one-command-per-cycle bus.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mechanisms.base import MechanismSpec

from repro.controller.address_mapping import AddressMapper, MappingScheme
from repro.controller.controller import MemoryController, SchedulingPolicy
from repro.controller.request import MemoryRequest
from repro.cpu.core import BlockReason, Core, CoreParams
from repro.cpu.trace import Trace
from repro.dram.config import DRAMGeometry, single_core_geometry
from repro.dram.mcr import MCRGenerator, MCRModeConfig
from repro.dram.refresh import RefreshPlan, WiringMethod
from repro.dram.timing import BaseTimings, TimingDomain
from repro.obs.hub import ObservabilityConfig, ObservabilityHub
from repro.power.edp import edp_joule_seconds
from repro.power.micron import IDDParameters, PowerModel, PowerStats
from repro.sim.results import RunResult
from repro.utils.stats import truncating_percentile

_INF = math.inf

#: Event-heap entry kinds (see :meth:`SystemSimulator.run`).
_EV_CORE, _EV_CTRL = 0, 1


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make forward progress."""


class SystemSimulator:
    """One complete system: N cores over one memory system.

    Args:
        traces: One trace per core.
        mode: MCR-mode configuration (use ``MCRModeConfig.off()`` for the
            conventional-DRAM baseline).
        geometry: DRAM organization; defaults to the paper's single-core
            system.
        row_remapper: Optional OS page-allocation model — a callable
            ``(rank, bank, row) -> row`` applied after address decoding
            (see :mod:`repro.core.allocation`).
        mapping: Address mapping scheme.
        refresh_enabled: Disable to isolate Early-Access/Early-Precharge
            effects (used by some ablations/tests).
        core_params: Core microarchitecture parameters.
        idd: Power-model currents.
        base_timings: Override the channel-wide DDR3 base timings (fault
            injection / sensitivity studies).
        wiring: Refresh-counter wiring (the paper's improved wiring by
            default).
        record_commands: Keep every issued command on each channel's
            ``command_log`` (golden-trace tests).
        policy: Scheduling policy (FR-FCFS by default).
        row_timing_overrides / trfc_overrides: Replace derived per-class
            timings on the simulated device while the oracle keeps
            checking the paper's table (see :mod:`repro.verify.bugs`).
        observability: Observation config; any enabled component —
            including a bare ``command_sink`` tap — builds the hub and
            hooks every controller.
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        mode: MCRModeConfig,
        geometry: DRAMGeometry | None = None,
        row_remapper: Callable[[int, int, int], int] | None = None,
        mapping: MappingScheme = MappingScheme.PERMUTATION,
        refresh_enabled: bool = True,
        core_params: CoreParams | None = None,
        idd: IDDParameters | None = None,
        base_timings: BaseTimings | None = None,
        wiring: WiringMethod = WiringMethod.K_TO_N_MINUS_1_K,
        record_commands: bool = False,
        policy: SchedulingPolicy = SchedulingPolicy.FR_FCFS,
        row_timing_overrides: dict | None = None,
        trfc_overrides: dict | None = None,
        observability: ObservabilityConfig | None = None,
        mechanism: "MechanismSpec | None" = None,
    ) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        self.geometry = geometry if geometry is not None else single_core_geometry()
        self.core_params = core_params if core_params is not None else CoreParams()
        # Resolve the latency-mechanism plugin (reference MCR when no
        # spec is given): it chooses the device-visible mode, layers its
        # timing overrides under any caller overrides (fault injection
        # wins), and supplies per-controller hooks.
        from repro.mechanisms.registry import resolve as resolve_mechanism

        plugin = resolve_mechanism(self.geometry, mode, mechanism)
        self.mechanism_plugin = plugin
        mode = plugin.device_mode()
        self.mode = mode
        merged_row_overrides = {
            **plugin.row_timing_overrides(),
            **(row_timing_overrides or {}),
        }
        merged_trfc_overrides = {
            **plugin.trfc_overrides(),
            **(trfc_overrides or {}),
        }
        self.domain = TimingDomain(
            self.geometry,
            mode,
            base=base_timings,
            wiring=wiring,
            row_timing_overrides=merged_row_overrides,
            trfc_overrides=merged_trfc_overrides,
        )
        self.plan = RefreshPlan(self.geometry, mode, wiring=wiring)
        self.mapper = AddressMapper(self.geometry, mapping)
        self.row_remapper = row_remapper
        generator = MCRGenerator(self.geometry, mode)
        self.controller_hooks = [
            plugin.make_hooks() for _ in range(self.geometry.channels)
        ]
        self.controllers = [
            MemoryController(
                self.geometry,
                self.domain,
                self.plan,
                row_class_fn=generator.row_class,
                refresh_enabled=refresh_enabled,
                policy=policy,
                activation_class_fn=(
                    hooks.activation_class if hooks is not None else None
                ),
                precharge_hook=(
                    hooks.on_precharge if hooks is not None else None
                ),
            )
            for hooks in self.controller_hooks
        ]
        if record_commands:
            for controller in self.controllers:
                controller.channel.command_log = []
        self.obs: ObservabilityHub | None = None
        if observability is not None and observability.enabled:
            self.obs = ObservabilityHub(
                observability,
                self.geometry,
                self.domain,
                mode,
                mechanism=mechanism,
                refresh_enabled=refresh_enabled,
            )
            for ch, controller in enumerate(self.controllers):
                controller.observer = self.obs.channel_observer(ch)
        self.cores = [
            Core(i, trace, self.core_params, self._try_send)
            for i, trace in enumerate(traces)
        ]
        self.idd = idd
        self._req_counter = 0
        self._completions: list[tuple[int, int, MemoryRequest]] = []  # (cycle, seq, req)
        self._completion_seq = 0
        self._ctrl_next: list[float] = [0.0] * len(self.controllers)
        self._ctrl_dirty: list[bool] = [True] * len(self.controllers)
        self._traces = list(traces)
        # Batched trace decode: every entry's address is decoded (and
        # row-remapped) once here instead of per _try_send attempt.
        # Cores replay entries strictly in order and retry a rejected
        # entry until it is accepted, so a per-core cursor advanced only
        # on acceptance tracks which decoded coordinate is in flight.
        decode = self.mapper.decode
        remapper = self.row_remapper
        coord_cache: dict[int, tuple[int, int, int, int, int]] = {}
        self._decoded: list[list[tuple[int, int, int, int, int]]] = []
        for trace in traces:
            decoded = []
            for entry in trace.entries:
                address = entry.address
                tup = coord_cache.get(address)
                if tup is None:
                    coords = decode(address)
                    row = coords.row
                    if remapper is not None:
                        row = remapper(coords.rank, coords.bank, row)
                    tup = (coords.channel, coords.rank, coords.bank, row,
                           coords.column)
                    coord_cache[address] = tup
                decoded.append(tup)
            self._decoded.append(decoded)
        self._send_cursor = [0] * len(traces)

    # ------------------------------------------------------------------
    # Core -> controller path
    # ------------------------------------------------------------------

    def _try_send(
        self, core_id: int, is_write: bool, address: int, fetch_cpu: float
    ) -> MemoryRequest | None:
        cpm = self.core_params.cpu_cycles_per_mem_cycle
        arrival = math.ceil(fetch_cpu / cpm)
        cursor = self._send_cursor[core_id]
        channel, rank, bank, row, column = self._decoded[core_id][cursor]
        controller = self.controllers[channel]
        if not controller.can_accept(is_write, arrival):
            return None
        self._send_cursor[core_id] = cursor + 1
        self._req_counter += 1
        request = MemoryRequest(
            req_id=self._req_counter,
            core_id=core_id,
            is_write=is_write,
            address=address,
            channel=channel,
            rank=rank,
            bank=bank,
            row=row,
            column=column,
        )
        controller.enqueue(request, arrival)
        self._ctrl_dirty[channel] = True
        return request

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int | None = None) -> RunResult:
        """Simulate until every core finishes; return the measurements.

        The next event time is tracked in a lazily-invalidated min-heap
        over controller estimates and core wake times (plus the separate
        data-completion heap) rather than re-scanning ``core_wake`` /
        ``_ctrl_next`` with ``min()`` every iteration. Heap entries are
        ``(time, kind, index)``; an entry is stale — and discarded on
        pop — when the tracked array no longer holds that exact time.
        Every write to the arrays pushes a fresh entry, so the heap top
        (after discarding stale entries) is always the true minimum. The
        loop ends when its count of unfinished cores reaches zero; the
        count drops at each core's finishing transition.
        """
        cpm = self.core_params.cpu_cycles_per_mem_cycle
        cores = self.cores
        controllers = self.controllers
        ctrl_next = self._ctrl_next
        ctrl_dirty = self._ctrl_dirty
        completions = self._completions
        core_wake: list[float] = [0.0] * len(cores)
        wq_blocked: set[int] = set()
        rq_blocked: set[int] = set()
        event_heap: list[tuple[float, int, int]] = [
            (0.0, _EV_CORE, idx) for idx in range(len(cores))
        ]
        heapq.heapify(event_heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        unfinished = sum(not c.finished for c in cores)

        def advance_core(idx: int, now_mem: float) -> None:
            nonlocal unfinished
            result = cores[idx].advance(now_mem * cpm)
            blocked = cores[idx].blocked
            if blocked is BlockReason.FINISHED:
                # Call sites only advance unfinished cores, so this is the
                # finishing transition exactly once per core.
                unfinished -= 1
                core_wake[idx] = _INF
            elif blocked is BlockReason.WRITE_QUEUE_FULL:
                wq_blocked.add(idx)
                core_wake[idx] = _INF
            elif blocked is BlockReason.READ_QUEUE_FULL:
                rq_blocked.add(idx)
                core_wake[idx] = _INF
            elif result.wake_cpu is None:
                core_wake[idx] = _INF
            else:
                wake = result.wake_cpu / cpm
                core_wake[idx] = wake
                heappush(event_heap, (wake, _EV_CORE, idx))

        now = 0.0
        while unfinished:
            if max_cycles is not None and now > max_cycles:
                raise SimulationError(f"exceeded max_cycles={max_cycles}")
            for ch, dirty in enumerate(ctrl_dirty):
                if dirty:
                    # ceil, not int: when a core enqueues at a fractional
                    # instant, the controller's next opportunity is the
                    # NEXT integer cycle. Flooring would let the estimate
                    # land at int(now) and issue a command retroactively,
                    # at a cycle the wall clock has already passed.
                    nxt = controllers[ch].next_action_cycle(math.ceil(now))
                    ctrl_dirty[ch] = False
                    if nxt is None:
                        ctrl_next[ch] = _INF
                    else:
                        ctrl_next[ch] = t = float(nxt)
                        heappush(event_heap, (t, _EV_CTRL, ch))
            # Discard stale heap entries until the top matches the value
            # its array currently holds (or the heap empties).
            while event_heap:
                t_evt, kind, idx = event_heap[0]
                tracked = core_wake[idx] if kind == _EV_CORE else ctrl_next[idx]
                if t_evt == tracked:
                    break
                heappop(event_heap)
            t_evt = event_heap[0][0] if event_heap else _INF
            t_comp = completions[0][0] if completions else _INF
            t = t_comp if t_comp < t_evt else t_evt
            if t == _INF:
                reasons = [
                    c.blocked.name if c.blocked is not None else "None"
                    for c in cores
                ]
                raise SimulationError(
                    "deadlock: no pending events but cores unfinished "
                    f"(blocked={reasons})"
                )
            now = t

            # 1. Data completions at exactly t.
            woke: set[int] = set()
            while completions and completions[0][0] <= now:
                _, _, request = heappop(completions)
                core = cores[request.core_id]
                core.on_read_complete(request, request.complete_cycle * cpm)
                woke.add(request.core_id)
                # A completed read frees its queue slot.
                ctrl_dirty[request.channel] = True
                if rq_blocked:
                    woke |= rq_blocked
                    rq_blocked.clear()
            for idx in woke:
                if not cores[idx].finished:
                    advance_core(idx, now)

            # 2. Cores whose self-scheduled wake time arrived.
            for idx, wake in enumerate(core_wake):
                if wake <= now and not cores[idx].finished:
                    advance_core(idx, now)

            # 3. Controllers whose next action is due.
            for ch, ctrl in enumerate(controllers):
                if ctrl_next[ch] <= now:
                    events = ctrl.execute(int(now))
                    ctrl_dirty[ch] = True
                    if not events.issued:
                        # Nothing was ready after all (stale estimate);
                        # force the estimate forward to guarantee progress.
                        nxt = ctrl.next_action_cycle(int(now) + 1)
                        ctrl_dirty[ch] = False
                        if nxt is None:
                            ctrl_next[ch] = _INF
                        else:
                            ctrl_next[ch] = t = float(nxt)
                            heappush(event_heap, (t, _EV_CTRL, ch))
                    for request, done in events.read_completions:
                        self._completion_seq += 1
                        heappush(
                            completions, (done, self._completion_seq, request)
                        )
                    if events.writes_drained and wq_blocked:
                        stalled = list(wq_blocked)
                        wq_blocked.clear()
                        for idx in stalled:
                            # A core woken by a read completion may have
                            # finished since it blocked on the write queue.
                            if not cores[idx].finished:
                                advance_core(idx, now)

        return self._collect_results()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _collect_results(self) -> RunResult:
        cpm = self.core_params.cpu_cycles_per_mem_cycle
        per_core = tuple(
            int(math.ceil((c.finish_cpu or 0.0) / cpm)) for c in self.cores
        )
        end_cycle = max(per_core) if per_core else 0
        for controller in self.controllers:
            for rank in controller.channel.ranks:
                rank.finalize_accounting(end_cycle)
        if self.obs is not None:
            self.obs.finalize(self.controllers)

        reads = sum(c.reads_enqueued for c in self.controllers)
        writes = sum(c.writes_enqueued for c in self.controllers)
        latency_total = sum(c.read_latency_total for c in self.controllers)
        latency_count = sum(c.read_latency_count for c in self.controllers)
        avg_latency = latency_total / latency_count if latency_count else 0.0
        all_latencies = sorted(
            latency
            for controller in self.controllers
            for latency in controller.read_latencies
        )
        percentiles = (
            truncating_percentile(all_latencies, 0.50),
            truncating_percentile(all_latencies, 0.95),
            truncating_percentile(all_latencies, 0.99),
        )

        stats = self._power_stats(end_cycle)
        power_model = PowerModel(
            self.geometry, self.domain, self.mode, idd=self.idd
        )
        energy = power_model.energy(stats)
        edp = edp_joule_seconds(energy.total, end_cycle, self.domain.base.tck_ns)

        return RunResult(
            workloads=tuple(t.name for t in self._traces),
            mode_label=self.mechanism_plugin.label(),
            execution_cycles=end_cycle,
            per_core_cycles=per_core,
            avg_read_latency_cycles=avg_latency,
            instructions=sum(c.instructions_fetched for c in self.cores),
            reads=reads,
            writes=writes,
            energy=energy,
            edp=edp,
            controller_stats=tuple(c.stats() for c in self.controllers),
            read_latency_percentiles=percentiles,
            metrics=self.obs.metrics_snapshot() if self.obs is not None else None,
            profile=self.obs.profile_snapshot() if self.obs is not None else None,
        )

    def _power_stats(self, end_cycle: int) -> PowerStats:
        from repro.dram.mcr import RowClass

        act_normal = act_mcr = act_alt = 0
        ref_counts = {
            "issued_fast": 0,
            "issued_fast_alt": 0,
            "issued_normal": 0,
            "skipped": 0,
        }
        active_cycles = 0
        idle_intervals: list[int] = []
        for controller in self.controllers:
            counts = controller.channel.activate_counts()
            act_mcr += counts[RowClass.MCR]
            act_alt += counts[RowClass.MCR_ALT]
            # Plugin-introduced classes (e.g. CHARGED) activate a full
            # row; fold them into the normal-activate energy bucket.
            act_normal += sum(
                n
                for cls, n in counts.items()
                if cls not in (RowClass.MCR, RowClass.MCR_ALT)
            )
            for key, value in controller.refresh.issued_counts().items():
                ref_counts[key] += value
            for rank in controller.channel.ranks:
                active_cycles += rank.active_standby_cycles
                idle_intervals.extend(rank.idle_intervals)
        return PowerStats(
            total_cycles=end_cycle,
            activates_normal=act_normal,
            activates_mcr=act_mcr,
            activates_mcr_alt=act_alt,
            reads=sum(c.channel.read_count for c in self.controllers),
            writes=sum(c.channel.write_count for c in self.controllers),
            refreshes_normal=ref_counts["issued_normal"],
            refreshes_fast=ref_counts["issued_fast"],
            refreshes_fast_alt=ref_counts["issued_fast_alt"],
            refreshes_skipped=ref_counts["skipped"],
            active_standby_cycles=active_cycles,
            idle_intervals=idle_intervals,
        )
