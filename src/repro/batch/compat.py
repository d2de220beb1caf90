"""Which simulation instances the batched kernel may run.

This predicate is the one routing rule: every layer that picks an
engine (the harness executor, the service dispatcher, the planner's
work units) asks it, and runs what it accepts on the kernel and
everything else on the scalar engine.

The kernel supports heterogeneous lanes — any mix of K/M modes,
geometries, mappings, scheduling policies, core parameters, wiring and
refresh settings batches together. Two scalar-engine features stay
scalar-only:

- **observability** (metrics, profiling, tracing, invariants, command
  sinks): the hub hooks need the scalar controller's per-command object
  graph; batchable runs produce ``metrics=None`` and ``profile=None``
  exactly like an unobserved scalar run, so RunResult equality is still
  field-complete;
- **page-allocation policies** (``spec.allocation``): the scalar engine
  derives a per-run row remapper from the traces; batching those would
  per-lane-ify the shared decode tables for no aggregate win.

Latency-mechanism plugins (``spec.mechanism``) declare their own batch
compatibility: the reference MCR plugin batches freely (the kernel's
lanes *are* the MCR device), while plugins that override timing tables
or install controller hooks (CLR-DRAM, ChargeCache) carry an explicit
scalar-fallback reason surfaced through this predicate.

``incompatibility`` returns a human-readable reason (or None when the
instance is batchable); see docs/SIMULATOR.md "Batched execution".
"""

from __future__ import annotations

from repro.core.api import SystemSpec


_OBSERVABILITY_REASON = (
    "observability (metrics, tracing, invariants, profiling, command "
    "sinks) requires the scalar engine's hub hooks"
)


def incompatibility(spec: SystemSpec, observability=None) -> str | None:
    """Why this instance cannot run on the batched kernel (None = it can)."""
    if observability is not None and getattr(observability, "enabled", True):
        return _OBSERVABILITY_REASON
    if spec.allocation is not None:
        return "page-allocation policies require the scalar engine's row remapper"
    if spec.mechanism is not None:
        from repro.mechanisms.registry import batch_incompatibility

        reason = batch_incompatibility(spec.mechanism)
        if reason is not None:
            return f"mechanism {spec.mechanism.name!r}: {reason}"
    return None


def is_batchable(spec: SystemSpec, observability=None) -> bool:
    return incompatibility(spec, observability) is None


def job_incompatibility(job) -> str | None:
    """Compat reason for a harness :class:`~repro.harness.jobs.SimJob`:
    a ``metrics`` job needs the observability hub."""
    if job.metrics:
        return _OBSERVABILITY_REASON
    return incompatibility(job.spec)


def group_key(spec: SystemSpec) -> tuple:
    """Chunk-packing key for the planner and the service coalescer.

    Lanes sharing a key share the kernel's most expensive construction
    tables: the address-decode memo is keyed by ``(geometry, mapping)``
    inside :class:`~repro.batch.kernel.BatchKernel`, and the refresh
    spread schedules and timing domains hash off the geometry. Grouping
    is a packing heuristic, never a correctness rule — the kernel
    accepts fully heterogeneous lanes; :func:`incompatibility` alone
    decides what may batch at all.
    """
    return (spec.geometry, spec.mapping)
