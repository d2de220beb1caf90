"""Experiment specs: the service's JSON wire format.

A spec is the declarative request one client submits — workload, trace
shape, MCR mode and system knobs — and maps one-to-one onto a
:class:`~repro.harness.jobs.SimJob` built from trace *provenances*, so
the request ships no trace data and the job's PR-1 SHA-256 fingerprint
is its service-wide identity: two clients submitting equivalent specs
(whatever their JSON key order or defaulted fields) collide on one
fingerprint, which is what lets the registry dedupe in-flight work and
the artifact cache serve completed work across tenants.

Validation is strict: unknown keys, out-of-range request counts and
unparseable modes are :class:`SpecError`\\ s (HTTP 400), never silent
defaults — a typo'd field must not fingerprint as a different job.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controller.address_mapping import MappingScheme
from repro.controller.controller import SchedulingPolicy
from repro.core.api import SystemSpec
from repro.core.mcr_mode import MCRMode
from repro.cpu.trace import TraceProvenance
from repro.dram.refresh import WiringMethod
from repro.harness.jobs import SimJob
from repro.workloads.generator import geometry_key
from repro.workloads.suites import get_profile

#: Upper bound on requested trace length; beyond this one job would
#: monopolize a worker shard for minutes, defeating admission control.
MAX_REQUESTS = 200_000


class SpecError(ValueError):
    """A submitted spec is malformed; maps to HTTP 400."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One validated simulation request.

    Attributes mirror the CLI knobs: ``workload`` is a synthetic-suite
    profile name, ``mode`` an MCR mode string (``"off"``,
    ``"4/4x/100%reg"``, ...), ``allocation`` a page-placement policy
    (``None``, ``"collision-free"`` or a ratio in (0, 1]), and
    ``mapping``/``policy``/``wiring`` the enum names of the address
    mapping, scheduling policy and refresh-counter wiring.
    """

    workload: str
    n_requests: int = 1000
    seed: int = 0
    mode: str = "off"
    allocation: float | str | None = None
    mapping: str = "PERMUTATION"
    policy: str = "FR_FCFS"
    wiring: str = "K_TO_N_MINUS_1_K"
    refresh_enabled: bool = True
    #: Collect an observability-metrics snapshot into the result
    #: (fingerprint-relevant — a metrics job is a distinct artifact).
    metrics: bool = False

    def canonical(self) -> dict:
        """Normalized JSON payload (stable shape, defaults materialized)."""
        return {
            "workload": self.workload,
            "n_requests": self.n_requests,
            "seed": self.seed,
            "mode": self.mode,
            "allocation": self.allocation,
            "mapping": self.mapping,
            "policy": self.policy,
            "wiring": self.wiring,
            "refresh_enabled": self.refresh_enabled,
            "metrics": self.metrics,
        }

    def to_job(self) -> SimJob:
        """Build the declarative :class:`SimJob` this spec describes."""
        provenance = TraceProvenance(
            profile=self.workload,
            display_name=self.workload,
            n_requests=self.n_requests,
            seed=self.seed,
            row_offset=0,
            geometry_key=geometry_key(None),
        )
        mode = MCRMode.parse(self.mode)
        spec = SystemSpec(
            mapping=MappingScheme[self.mapping],
            policy=SchedulingPolicy[self.policy],
            wiring=WiringMethod[self.wiring],
            refresh_enabled=self.refresh_enabled,
            allocation=self.allocation,
        )
        label = f"{self.workload} {mode.config.label()} n={self.n_requests} s={self.seed}"
        return SimJob.from_provenances(
            [provenance],
            mode,
            spec,
            label=label,
            metrics=self.metrics,
        )


_FIELDS = frozenset(ExperimentSpec.__dataclass_fields__)


def _enum_name(value: object, enum_cls, field: str) -> str:
    name = str(value).upper()
    if name not in enum_cls.__members__:
        raise SpecError(
            f"unknown {field} {value!r}; choose from {sorted(enum_cls.__members__)}"
        )
    return name


def parse_spec(payload: object) -> ExperimentSpec:
    """Validate a decoded JSON payload into an :class:`ExperimentSpec`.

    Raises :class:`SpecError` on anything malformed. Equivalent payloads
    (key order, explicit defaults) parse to equal specs and therefore to
    equal job fingerprints.
    """
    if not isinstance(payload, dict):
        raise SpecError(f"spec must be a JSON object, got {type(payload).__name__}")
    unknown = set(payload) - _FIELDS
    if unknown:
        raise SpecError(f"unknown spec field(s): {sorted(unknown)}")
    if "workload" not in payload:
        raise SpecError("spec requires a 'workload'")
    workload = payload["workload"]
    if not isinstance(workload, str):
        raise SpecError("'workload' must be a string")
    try:
        get_profile(workload)
    except (KeyError, ValueError) as exc:
        # KeyError's str() keeps its quotes; unwrap to the message itself.
        raise SpecError(str(exc.args[0]) if exc.args else str(exc)) from None

    n_requests = payload.get("n_requests", 1000)
    if not isinstance(n_requests, int) or isinstance(n_requests, bool):
        raise SpecError("'n_requests' must be an integer")
    if not 1 <= n_requests <= MAX_REQUESTS:
        raise SpecError(f"'n_requests' must be within [1, {MAX_REQUESTS}]")

    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecError("'seed' must be an integer")

    mode = payload.get("mode", "off")
    if not isinstance(mode, str):
        raise SpecError("'mode' must be a string")
    try:
        MCRMode.parse(mode)
    except ValueError as exc:
        raise SpecError(str(exc)) from None

    allocation = payload.get("allocation")
    if allocation is not None:
        if isinstance(allocation, bool):
            raise SpecError("'allocation' must be null, 'collision-free' or a ratio")
        if isinstance(allocation, (int, float)):
            allocation = float(allocation)
            if not 0.0 < allocation <= 1.0:
                raise SpecError("'allocation' ratio must lie within (0, 1]")
        elif allocation != "collision-free":
            raise SpecError(
                "'allocation' must be null, 'collision-free' or a ratio in (0, 1]"
            )

    refresh_enabled = payload.get("refresh_enabled", True)
    if not isinstance(refresh_enabled, bool):
        raise SpecError("'refresh_enabled' must be a boolean")

    metrics = payload.get("metrics", False)
    if not isinstance(metrics, bool):
        raise SpecError("'metrics' must be a boolean")

    return ExperimentSpec(
        workload=workload,
        n_requests=n_requests,
        seed=seed,
        mode=mode,
        allocation=allocation,
        mapping=_enum_name(payload.get("mapping", "PERMUTATION"), MappingScheme, "mapping"),
        policy=_enum_name(payload.get("policy", "FR_FCFS"), SchedulingPolicy, "policy"),
        wiring=_enum_name(payload.get("wiring", "K_TO_N_MINUS_1_K"), WiringMethod, "wiring"),
        refresh_enabled=refresh_enabled,
        metrics=metrics,
    )
