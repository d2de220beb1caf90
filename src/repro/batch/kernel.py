"""Lockstep batched execution of many simulation instances.

The kernel steps every unfinished lane one event instant per round:

    round:  for each unfinished lane: lane.step()   (one event apiece)

All per-command microstate (bank/rank floors, queue buckets, decision
memos) lives in the flat per-lane tables of :mod:`repro.batch.lane`;
the kernel itself keeps only the list of lanes still running.

Lanes of one invocation share MCR row classifiers and an
address-decode memo per (geometry, mapping). Each lane builds its own
timing domain (tens of microseconds) and reads the scalar engine's
lazily built refresh spread schedule, so construction costs about what
it costs the scalar engine; what the kernel saves is stepping time
(measured ratios in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.batch.compat import incompatibility
from repro.batch.lane import Lane
from repro.batch.tables import spread_schedule
from repro.controller.address_mapping import AddressMapper
from repro.core.api import SystemSpec
from repro.core.mcr_mode import MCRMode
from repro.cpu.trace import Trace
from repro.dram.mcr import MCRGenerator, MCRModeConfig
from repro.dram.refresh import window_counts
from repro.dram.timing import TimingDomain
from repro.sim.results import RunResult

#: Lanes per kernel invocation; the harness chunks larger groups.
MAX_LANES = 64


class BatchCompatError(ValueError):
    """An instance handed to the kernel needs the scalar engine."""


@dataclass(frozen=True)
class BatchInstance:
    """One (config, seed) simulation instance: the batched counterpart
    of a ``run_system`` call."""

    traces: tuple[Trace, ...]
    mode: MCRModeConfig
    spec: SystemSpec = field(default_factory=SystemSpec)
    max_cycles: int | None = None


def from_verify_case(case) -> BatchInstance:
    """Adapt a seeded :class:`repro.verify.generator.VerifyCase`."""
    from repro.verify.generator import build_spec, build_traces

    return BatchInstance(
        traces=tuple(build_traces(case)),
        mode=case.mode().config,
        spec=build_spec(case),
        max_cycles=case.max_cycles,
    )


class BatchKernel:
    """Build lanes, then run them in lockstep."""

    def __init__(self, instances) -> None:
        lanes: list[Lane] = []
        mappers: dict = {}
        decode_memos: dict = {}
        generators: dict = {}
        for index, instance in enumerate(instances):
            mode = instance.mode
            if isinstance(mode, MCRMode):
                mode = mode.config
            if not isinstance(mode, MCRModeConfig):
                raise BatchCompatError(
                    f"instance {index}: mode must be MCRMode/MCRModeConfig, "
                    f"got {type(instance.mode).__name__}"
                )
            spec = instance.spec
            reason = incompatibility(spec)
            if reason is not None:
                raise BatchCompatError(f"instance {index}: {reason}")
            geometry = spec.geometry
            map_key = (geometry, spec.mapping)
            mapper = mappers.get(map_key)
            if mapper is None:
                mapper = mappers[map_key] = AddressMapper(geometry, spec.mapping)
                decode_memos[map_key] = {}
            memo = decode_memos[map_key]
            banks = geometry.banks_per_rank
            decode = mapper.decode
            decoded = []
            for trace in instance.traces:
                lane_trace = []
                for entry in trace.entries:
                    address = entry.address
                    tup = memo.get(address)
                    if tup is None:
                        coords = decode(address)
                        tup = (
                            coords.channel,
                            coords.rank,
                            coords.rank * banks + coords.bank,
                            coords.row,
                        )
                        memo[address] = tup
                    lane_trace.append(tup)
                decoded.append(lane_trace)
            gen_key = (geometry, mode)
            generator = generators.get(gen_key)
            if generator is None:
                generator = generators[gen_key] = MCRGenerator(geometry, mode)
            lanes.append(
                Lane(
                    instance.traces,
                    mode,
                    spec,
                    instance.max_cycles,
                    TimingDomain(geometry, mode, wiring=spec.wiring),
                    spread_schedule(window_counts(mode)),
                    decoded,
                    generator.row_class,
                )
            )
        self.lanes = lanes

    def run(self) -> list[RunResult]:
        running = self.lanes
        while running:
            for lane in running:
                lane.step()
            running = [lane for lane in running if not lane.done]
        return [lane.result for lane in self.lanes]


def run_batch(instances) -> list[RunResult]:
    """Run instances on the batched kernel; results in instance order.

    Every per-instance :class:`RunResult` is bit-identical to
    ``repro.core.api.run_system(instance.traces, instance.mode,
    spec=instance.spec, max_cycles=instance.max_cycles)`` — the contract
    the cross-engine equivalence suite enforces.
    """
    instances = list(instances)
    if not instances:
        return []
    return BatchKernel(instances).run()
