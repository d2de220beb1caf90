"""Sharded execution backends for the service.

Jobs are routed to a shard by their fingerprint (stable, content-based
placement), and each shard executes one job at a time in FIFO order —
so total service concurrency equals the shard count, per-shard ordering
is deterministic, and a hot fingerprint can never occupy two workers
(coalescing upstream guarantees it never tries).

Two backends share the interface:

- ``"process"`` — one single-worker ``ProcessPoolExecutor`` per shard,
  running :func:`repro.harness.executor._worker` (scalar jobs) and
  :func:`~repro.harness.executor._batch_worker` (kernel chunks) exactly
  as the one-shot harness's pool does (trace rebuild memoized per
  worker process);
- ``"thread"`` — one single-worker thread per shard, executing in-process;
  GIL-bound but startup-free, the right choice for tests, smoke runs and
  cache-dominated workloads.

A crashed or broken worker surfaces as :class:`WorkerCrash` carrying the
exception type; the retry-once policy (and its telemetry) lives in the
service, mirroring the harness executor's.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.harness.executor import _batch_worker, _worker
from repro.harness.jobs import SimJob
from repro.sim.results import RunResult

BACKENDS = ("process", "thread")


class WorkerCrash(RuntimeError):
    """A shard worker failed; ``reason`` is the exception type name."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"worker crashed: {reason}")
        self.reason = reason


def _thread_worker(
    payload: tuple, traceparent: str | None = None
) -> tuple[str, RunResult, float]:
    """Thread-backend entry point (separate from the process entry point
    so tests can monkeypatch execution without touching the harness)."""
    return _worker(payload, traceparent)


def _thread_chunk_worker(
    payloads: list[tuple], traceparents: list[str | None] | None = None
) -> list[tuple[str, RunResult, float]]:
    """Thread-backend chunk entry point — distinct from
    :func:`_thread_worker` so tests that monkeypatch the single-job
    entry keep exercising exactly the single-job dispatch path."""
    return _batch_worker(payloads, traceparents)


class ShardedWorkerPool:
    """N single-worker executors, addressed by fingerprint."""

    def __init__(self, shards: int = 2, backend: str = "process") -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.shards = max(1, int(shards))
        self.backend = backend
        if backend == "process":
            self._executors = [
                ProcessPoolExecutor(max_workers=1) for _ in range(self.shards)
            ]
        else:
            self._executors = [
                ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"svc-shard{i}")
                for i in range(self.shards)
            ]

    def shard_of(self, fingerprint: str) -> int:
        """Stable shard placement from the leading fingerprint bits."""
        return int(fingerprint[:8], 16) % self.shards

    async def run(
        self, job: SimJob, traceparent: str | None = None
    ) -> tuple[RunResult, float, str]:
        """Execute ``job`` on its shard; return (result, seconds, where).

        ``traceparent`` (a W3C header string) rides along so the worker
        rebinds the submitter's trace context around execution and the
        result comes back stamped with it. Raises :class:`WorkerCrash`
        on any worker-side failure so the caller can apply its retry
        policy with the reason preserved.
        """
        loop = asyncio.get_running_loop()
        executor = self._executors[self.shard_of(job.fingerprint)]
        entry = _worker if self.backend == "process" else _thread_worker
        try:
            _, result, seconds = await loop.run_in_executor(
                executor, entry, job.payload(), traceparent
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            raise WorkerCrash(type(exc).__name__) from exc
        return result, seconds, "worker"

    async def run_chunk(
        self,
        jobs: list[SimJob],
        traceparents: list[str | None] | None = None,
        shard: int | None = None,
    ) -> list[tuple[RunResult, float]]:
        """Execute batch-compatible ``jobs`` as lanes of one kernel
        invocation on ``shard``; return (result, seconds) per lane in
        job order.

        The whole chunk ships across the worker boundary in one hop —
        one executor submission instead of ``len(jobs)`` — and each
        lane's ``traceparent`` rides along so results come back stamped
        per submission. Raises :class:`WorkerCrash` on any chunk-level
        failure; the service then unwinds to its per-job retry policy.
        """
        loop = asyncio.get_running_loop()
        if shard is None:
            shard = self.shard_of(jobs[0].fingerprint)
        executor = self._executors[shard]
        entry = _batch_worker if self.backend == "process" else _thread_chunk_worker
        payloads = [job.payload() for job in jobs]
        try:
            collected = await loop.run_in_executor(
                executor, entry, payloads, traceparents
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            raise WorkerCrash(type(exc).__name__) from exc
        return [(result, seconds) for _, result, seconds in collected]

    def shutdown(self, wait: bool = True) -> None:
        for executor in self._executors:
            executor.shutdown(wait=wait, cancel_futures=not wait)
