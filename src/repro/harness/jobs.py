"""Simulation jobs: the unit of work the harness plans and executes.

A :class:`SimJob` is one ``run_system(traces, mode, spec)`` invocation in
declarative form. Jobs built from trace *provenances* carry no trace data
at all — worker processes rebuild the traces deterministically — while
jobs built from literal traces (anything without provenance) ship the
traces themselves. Either way the job's fingerprint is its identity:
planners dedupe on it graph-wide and the result store keys on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.api import SystemSpec, run_system
from repro.core.mcr_mode import MCRMode
from repro.cpu.trace import Trace, TraceProvenance
from repro.dram.mcr import MCRModeConfig
from repro.harness.fingerprint import fingerprint_trace, job_fingerprint
from repro.sim.results import RunResult
from repro.workloads.generator import trace_from_provenance

#: Process-local memo of rebuilt traces, so many jobs over one workload
#: regenerate it once per process (parent or pool worker alike).
_built_traces: dict[TraceProvenance, Trace] = {}


def built_trace(provenance: TraceProvenance) -> Trace:
    """Build (or reuse) the trace a provenance record describes."""
    if provenance not in _built_traces:
        _built_traces[provenance] = trace_from_provenance(provenance)
    return _built_traces[provenance]


def clear_trace_memo() -> None:
    """Drop rebuilt traces (tests and long-lived sessions)."""
    _built_traces.clear()


@dataclass(frozen=True)
class SimJob:
    """One planned simulation.

    Exactly one of ``provenances`` / ``literal_traces`` is non-empty. The
    fingerprint is computed at construction and is the only identity the
    harness ever compares — never object ids. ``label`` is display-only
    (telemetry lines) and excluded from equality.
    """

    fingerprint: str
    mode: MCRModeConfig
    spec: SystemSpec
    provenances: tuple[TraceProvenance, ...] = ()
    literal_traces: tuple[Trace, ...] = field(default=(), compare=False)
    label: str = field(default="", compare=False)
    #: Collect an observability-metrics snapshot into the result
    #: (fingerprint-relevant: a metrics result is a different artifact).
    metrics: bool = False

    @classmethod
    def from_provenances(
        cls,
        provenances: Sequence[TraceProvenance],
        mode: MCRModeConfig | MCRMode,
        spec: SystemSpec,
        label: str = "",
        metrics: bool = False,
    ) -> "SimJob":
        """Declarative job: traces described, not built."""
        mode_cfg = mode.config if isinstance(mode, MCRMode) else mode
        fps = [
            fingerprint_trace(built)
            for built in (_ProvenanceOnly(p) for p in provenances)
        ]
        return cls(
            fingerprint=job_fingerprint(fps, mode_cfg, spec, metrics=metrics),
            mode=mode_cfg,
            spec=spec,
            provenances=tuple(provenances),
            label=label or _default_label(provenances, mode_cfg),
            metrics=metrics,
        )

    @classmethod
    def from_traces(
        cls,
        traces: Sequence[Trace],
        mode: MCRModeConfig | MCRMode,
        spec: SystemSpec,
        label: str = "",
        metrics: bool = False,
    ) -> "SimJob":
        """Job from already-built traces.

        Uses provenance when every trace has it (so the job is cheap to
        ship to workers and collides with planner-made jobs, as it must);
        otherwise keeps the literal traces.
        """
        mode_cfg = mode.config if isinstance(mode, MCRMode) else mode
        traces = tuple(traces)
        fps = [fingerprint_trace(t) for t in traces]
        fingerprint = job_fingerprint(fps, mode_cfg, spec, metrics=metrics)
        if all(t.provenance is not None for t in traces):
            provenances = tuple(t.provenance for t in traces)
            # Seed the memo so local execution reuses these exact objects.
            for provenance, trace in zip(provenances, traces):
                _built_traces.setdefault(provenance, trace)
            return cls(
                fingerprint=fingerprint,
                mode=mode_cfg,
                spec=spec,
                provenances=provenances,
                label=label or _default_label(provenances, mode_cfg),
                metrics=metrics,
            )
        return cls(
            fingerprint=fingerprint,
            mode=mode_cfg,
            spec=spec,
            literal_traces=traces,
            label=label or "+".join(t.name for t in traces) + f" {mode_cfg.label()}",
            metrics=metrics,
        )

    def build_traces(self) -> tuple[Trace, ...]:
        """Materialize the job's input traces (memoized per process)."""
        if self.literal_traces:
            return self.literal_traces
        return tuple(built_trace(p) for p in self.provenances)

    def execute(self) -> RunResult:
        """Run the simulation in this process on the scalar engine, with
        the observability hub attached when ``metrics`` is set.

        Always scalar: retries and the equivalence checks re-run a job
        through here as the reference for the batched kernel.
        """
        observability = None
        if self.metrics:
            from repro.obs.hub import ObservabilityConfig

            observability = ObservabilityConfig(metrics=True)
        return run_system(
            self.build_traces(),
            MCRMode(self.mode),
            spec=self.spec,
            observability=observability,
        )

    def payload(self) -> tuple:
        """Picklable form shipped to pool workers."""
        return (
            self.fingerprint,
            self.provenances,
            self.literal_traces,
            self.mode,
            self.spec,
            self.metrics,
        )

    @classmethod
    def from_payload(cls, payload: tuple) -> "SimJob":
        fingerprint, provenances, literal_traces, mode, spec, metrics = payload
        return cls(
            fingerprint=fingerprint,
            mode=mode,
            spec=spec,
            provenances=provenances,
            literal_traces=literal_traces,
            metrics=metrics,
        )


class _ProvenanceOnly:
    """Adapter giving :func:`fingerprint_trace` a trace-shaped view of a
    provenance record without building the trace."""

    __slots__ = ("provenance",)

    def __init__(self, provenance: TraceProvenance) -> None:
        self.provenance = provenance


def _default_label(
    provenances: Sequence[TraceProvenance], mode: MCRModeConfig
) -> str:
    names = "+".join(p.display_name for p in provenances)
    return f"{names} {mode.label()}"
