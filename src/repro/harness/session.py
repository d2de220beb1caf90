"""The process-wide harness session.

A session owns the in-memory result memo, the optional on-disk store and
the telemetry for one sweep. ``repro.experiments.runner.cached_run``
routes every simulation through the active session, so *all* experiment
drivers share one graph-wide cache keyed by content fingerprints —
whether the session was configured by the CLI (``--parallel``,
``--cache-dir``) or left at the library default (memory-only, serial,
exactly the old ``cached_run`` semantics minus the ``id()`` keying).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.api import SystemSpec
from repro.cpu.trace import Trace
from repro.dram.mcr import MCRModeConfig
from repro.harness.executor import HarnessConfig, execute_jobs
from repro.harness.jobs import SimJob, clear_trace_memo
from repro.harness.store import ResultStore
from repro.harness.telemetry import Telemetry
from repro.sim.results import RunResult


class HarnessSession:
    """One configured execution context."""

    def __init__(self, config: HarnessConfig | None = None) -> None:
        self.config = config if config is not None else HarnessConfig()
        self.store: ResultStore | None = (
            ResultStore(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.telemetry = Telemetry()
        self.memo: dict[str, RunResult] = {}

    # ------------------------------------------------------------------

    def run_job(self, job: SimJob) -> RunResult:
        """Resolve one job: memo, then store, then execute serially."""
        results = execute_jobs(
            [job],
            # Inline resolution is always serial: parallelism comes from
            # prewarming the planned graph, not from single lookups.
            dataclasses.replace(self.config, parallel=1),
            memo=self.memo,
            store=self.store,
            telemetry=self.telemetry,
        )
        return results[job.fingerprint]

    def run(
        self,
        traces: Sequence[Trace],
        mode: MCRModeConfig,
        spec: SystemSpec,
    ) -> RunResult:
        """``cached_run`` entry point: fingerprint and resolve."""
        return self.run_job(SimJob.from_traces(traces, mode, spec))

    def prewarm(self, jobs: Sequence[SimJob]) -> None:
        """Execute (or load) every planned job, possibly in parallel."""
        self.telemetry.planned += len({j.fingerprint for j in jobs})
        execute_jobs(
            jobs,
            self.config,
            memo=self.memo,
            store=self.store,
            telemetry=self.telemetry,
        )

    def reset_memory(self) -> None:
        """Drop in-process state; the on-disk store survives."""
        self.memo.clear()
        self.telemetry.reset()
        clear_trace_memo()


#: The active session. Library default: serial, memory-only.
_active = HarnessSession()


def active() -> HarnessSession:
    return _active


def configure(config: HarnessConfig | None = None) -> HarnessSession:
    """Install (and return) a fresh session with ``config``."""
    global _active
    _active = HarnessSession(config)
    return _active
