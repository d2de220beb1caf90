"""Parallel job execution with retry, graceful shutdown and ordered collection.

The engine resolves each job against the in-memory memo and the on-disk
store first; only genuinely missing simulations execute.
:func:`repro.harness.planner.plan_units` splits them into work units by
the one routing rule, :func:`repro.batch.job_incompatibility`: jobs it
accepts run as lanes of batched-kernel chunks, every other job runs
alone on the scalar engine. With ``parallel <= 1`` (or a single unit)
the units run in-process; otherwise a ``ProcessPoolExecutor`` fans them
out and results are collected **in submission order**, so telemetry,
store writes and the returned mapping are byte-identical between serial
and parallel runs (the simulations themselves are deterministic
functions of the job, so parallelism can only reorder wall-clock, never
results).

Failure policy: a job whose worker or kernel chunk crashes, times out,
or whose pool breaks is retried exactly once, serially, on the scalar
engine in the parent process — and the retry is *never silent*: the
triggering exception type is counted in
:class:`~repro.harness.telemetry.Telemetry` (``retried`` plus
``retry_reasons``) and surfaces in ``report --metrics``. A job failing
its retry raises — a broken simulation must surface, not vanish into a
partial sweep.

Shutdown policy: with ``HarnessConfig.graceful`` (the default), the
first SIGINT/SIGTERM during a sweep *drains* instead of crashing —
in-flight jobs finish and persist to the store, queued jobs are
cancelled and counted, then :class:`HarnessInterrupted` is raised so the
caller knows the sweep is partial. A second signal aborts immediately.
Because every completed result is persisted the moment it exists, there
is nothing further to flush: an interrupted sweep keeps everything it
already computed, and re-running executes exactly the missing jobs.
"""

from __future__ import annotations

import math
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.harness.jobs import SimJob
from repro.harness.store import ResultStore
from repro.harness.telemetry import Telemetry
from repro.obs import plane
from repro.sim.results import RunResult

if TYPE_CHECKING:
    from repro.harness.planner import WorkUnit


class HarnessInterrupted(RuntimeError):
    """A graceful shutdown cut the sweep short.

    Attributes:
        completed: Jobs that finished (and persisted) before the drain.
        cancelled: Queued jobs abandoned without executing.
    """

    def __init__(self, completed: int, cancelled: int) -> None:
        super().__init__(
            f"harness interrupted: drained {completed} in-flight job(s), "
            f"cancelled {cancelled} queued job(s); completed results are "
            f"persisted — re-run to execute only the missing jobs"
        )
        self.completed = completed
        self.cancelled = cancelled


@dataclass(frozen=True)
class HarnessConfig:
    """Execution policy for a harness session.

    Attributes:
        parallel: Worker processes; ``<= 1`` executes in-process.
        cache_dir: On-disk store root, or ``None`` for memory-only.
        timeout_s: Per-job wall-clock budget in workers (``None`` = no
            limit); a kernel chunk gets ``timeout_s`` per lane. A
            timed-out unit's jobs are retried serially in the parent.
        retry: Retry a crashed/timed-out job once in the parent.
        graceful: Install SIGINT/SIGTERM handlers for the duration of a
            sweep: first signal drains in-flight jobs and cancels queued
            ones (raising :class:`HarnessInterrupted`), second aborts.
            No-op off the main thread.
    """

    parallel: int = 1
    cache_dir: str | None = None
    timeout_s: float | None = None
    retry: bool = True
    graceful: bool = True


def _worker(
    payload: tuple, traceparent: str | None = None
) -> tuple[str, RunResult, float]:
    """Pool entry point: rebuild the job's traces and simulate.

    Times the simulation in the worker itself, so per-job telemetry
    reports execution time, not queue wait + worker startup. A
    ``traceparent`` header (if the submitter had a trace context bound)
    crosses the process boundary here; the worker re-binds it and stamps
    the result with an ``execute`` span, so the correlation id survives
    the hop without touching any measurement field.
    """
    job = SimJob.from_payload(payload)
    ctx = plane.parse_traceparent(traceparent)
    start = time.perf_counter()
    if ctx is None:
        result = job.execute()
        return job.fingerprint, result, time.perf_counter() - start
    wall = time.time()
    with plane.bind(ctx):
        result = job.execute()
    result = plane.stamp_result(
        result, ctx, [plane.span("execute", ctx, wall, time.time())]
    )
    return job.fingerprint, result, time.perf_counter() - start


def _batch_worker(
    payloads: Sequence[tuple], traceparents: Sequence[str | None] | None = None
) -> list[tuple[str, RunResult, float]]:
    """Pool/service entry point: run one kernel chunk of rebuilt jobs.

    The executor's pool and the service's dispatch ship a whole
    batch-compatible chunk across the process boundary as payloads; the
    worker rebuilds each job's traces and runs them as lanes of a single
    kernel invocation. Per-lane traceparents survive the hop: each
    lane's result is stamped with its own ``execute`` span (sharing the
    chunk's wall-clock window — lanes run interleaved, there is no
    per-lane wall time), and each lane reports the chunk's time
    amortized over its lanes, mirroring the in-process batch path's
    telemetry.
    """
    from repro.batch import BatchInstance, run_batch

    jobs = [SimJob.from_payload(payload) for payload in payloads]
    start = time.perf_counter()
    wall = time.time()
    outputs = run_batch(
        BatchInstance(traces=job.build_traces(), mode=job.mode, spec=job.spec)
        for job in jobs
    )
    per_lane = (time.perf_counter() - start) / len(jobs)
    end_wall = time.time()
    collected: list[tuple[str, RunResult, float]] = []
    for index, (job, result) in enumerate(zip(jobs, outputs)):
        header = traceparents[index] if traceparents is not None else None
        ctx = plane.parse_traceparent(header)
        if ctx is not None:
            result = plane.stamp_result(
                result, ctx, [plane.span("execute", ctx, wall, end_wall)]
            )
        collected.append((job.fingerprint, result, per_lane))
    return collected


class _ShutdownGuard:
    """Scoped SIGINT/SIGTERM trap for one sweep.

    First signal sets :attr:`triggered` (the executor then drains);
    a second signal restores the previous handlers and raises
    ``KeyboardInterrupt`` so a hung drain can still be aborted. Signal
    handlers can only live on the main thread; anywhere else the guard
    degrades to an inert flag.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, enabled: bool) -> None:
        self.triggered = False
        self._armed = enabled and threading.current_thread() is threading.main_thread()
        self._previous: dict[int, object] = {}

    def __enter__(self) -> "_ShutdownGuard":
        if self._armed:
            for signum in self._SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._previous:
            signum, handler = self._previous.popitem()
            signal.signal(signum, handler)

    def _handle(self, signum, frame) -> None:
        if self.triggered:
            self._restore()
            raise KeyboardInterrupt
        self.triggered = True
        print(
            "[harness] shutdown requested: draining in-flight jobs, "
            "cancelling queued ones (signal again to abort)",
            flush=True,
        )


def _run_in_parent(
    job: SimJob, telemetry: Telemetry, where: str
) -> RunResult:
    started = telemetry.job_started(job.label)
    ctx = plane.current()
    wall = time.time()
    result = job.execute()
    if ctx is not None:
        result = plane.stamp_result(
            result, ctx, [plane.span("execute", ctx, wall, time.time())]
        )
    telemetry.job_finished(job.fingerprint, job.label, started, where)
    return result


def execute_jobs(
    jobs: Sequence[SimJob],
    config: HarnessConfig,
    *,
    memo: dict[str, RunResult],
    store: ResultStore | None = None,
    telemetry: Telemetry | None = None,
) -> dict[str, RunResult]:
    """Execute ``jobs``, filling ``memo`` (and ``store``); return
    fingerprint -> result for every requested job, in job order.

    Jobs already present in ``memo`` or ``store`` are cache hits and do
    not execute. Duplicate fingerprints in ``jobs`` execute once.

    Raises :class:`HarnessInterrupted` when a graceful shutdown drained
    the sweep early; everything completed up to that point is in ``memo``
    (and ``store``).
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    results: dict[str, RunResult] = {}
    pending: list[SimJob] = []
    seen: set[str] = set()

    for job in jobs:
        if job.fingerprint in seen:
            continue
        seen.add(job.fingerprint)
        if job.fingerprint in memo:
            telemetry.cache_hit(from_store=False)
            results[job.fingerprint] = memo[job.fingerprint]
            continue
        if store is not None:
            cached = store.get(job.fingerprint)
            if cached is not None:
                telemetry.cache_hit(from_store=True)
                memo[job.fingerprint] = cached
                results[job.fingerprint] = cached
                continue
            telemetry.store_misses += 1
        pending.append(job)

    telemetry.queued += len(pending)

    def complete(job: SimJob, result: RunResult) -> None:
        # Persist the moment a result exists, not after the whole batch:
        # an interrupted sweep must keep everything it already computed.
        memo[job.fingerprint] = result
        results[job.fingerprint] = result
        if store is not None:
            store.put(job.fingerprint, result)

    with _ShutdownGuard(config.graceful) as guard:
        if pending:
            from repro.batch import MAX_LANES
            from repro.harness.planner import plan_units

            workers = max(config.parallel, 1)
            lanes = min(MAX_LANES, math.ceil(len(pending) / workers))
            units = plan_units(pending, max_lanes=lanes)
            if config.parallel <= 1 or len(units) == 1:
                _run_units(units, telemetry, complete, guard, retry=config.retry)
            else:
                _run_in_pool(units, config, telemetry, complete, guard)

    # Return in original job order (dict preserves insertion; re-walk to
    # interleave cache hits and executed jobs the way they were asked).
    return {
        job.fingerprint: results[job.fingerprint]
        for job in jobs
        if job.fingerprint in results
    }


def _run_units(
    units: Sequence[WorkUnit],
    telemetry: Telemetry,
    complete,
    guard: _ShutdownGuard,
    retry: bool = True,
) -> None:
    """Run work units in the parent, in plan order: chunk units through
    the lockstep kernel, scalar units through ``SimJob.execute``.

    Results complete (and persist) unit by unit, so a shutdown drains
    the in-flight unit and cancels the rest.
    """
    done = 0
    for index, unit in enumerate(units):
        if guard.triggered:
            remaining = [job for rest in units[index:] for job in rest.jobs]
            for job in remaining:
                telemetry.job_cancelled(job.label)
            raise HarnessInterrupted(done, len(remaining))
        if unit.kind == "chunk":
            _run_chunk(unit.jobs, telemetry, complete, retry)
        else:
            for job in unit.jobs:
                complete(job, _run_in_parent(job, telemetry, where="parent"))
        done += len(unit.jobs)


def _run_chunk(
    chunk: Sequence[SimJob], telemetry: Telemetry, complete, retry: bool
) -> None:
    """Run one kernel chunk in the parent.

    Lanes of one chunk run interleaved — there is no per-job wall clock
    — so telemetry attributes each job the chunk's wall time amortized
    over its lanes.

    Failure policy matches the pool path: a chunk whose kernel
    invocation raises is unwound and each of its jobs is retried exactly
    once, serially, on the scalar engine in the parent — never silently:
    the triggering exception type lands in ``harness.retries{reason}``
    exactly as a worker crash would.
    """
    from repro.batch import BatchInstance, run_batch

    ctx = plane.current()
    starts = [telemetry.job_started(job.label) for job in chunk]
    began = time.perf_counter()
    wall = time.time()
    try:
        outputs = run_batch(
            BatchInstance(traces=job.build_traces(), mode=job.mode, spec=job.spec)
            for job in chunk
        )
    except Exception as exc:
        reason = type(exc).__name__
        telemetry.running -= len(chunk)
        if not retry:
            telemetry.failures += len(chunk)
            raise RuntimeError(
                f"harness batch chunk failed: {len(chunk)} job(s) ({reason})"
            ) from exc
        for job in chunk:
            telemetry.job_retried(job.label, reason)
            try:
                complete(job, _run_in_parent(job, telemetry, where="retry"))
            except Exception:
                telemetry.failures += 1
                raise
        return
    per_job = (time.perf_counter() - began) / len(chunk)
    for job, started, result in zip(chunk, starts, outputs):
        if ctx is not None:
            result = plane.stamp_result(
                result,
                ctx,
                [plane.span("execute", ctx, wall, time.time())],
            )
        telemetry.job_finished(
            job.fingerprint, job.label, started, where="batch", seconds=per_job
        )
        complete(job, result)


def _run_in_pool(
    units: Sequence[WorkUnit],
    config: HarnessConfig,
    telemetry: Telemetry,
    complete,
    guard: _ShutdownGuard,
) -> None:
    """Fan units out to processes; collect in submission order; retry failures.

    A chunk unit is one :func:`_batch_worker` submission with a budget
    of ``timeout_s`` per lane; a scalar unit is one :func:`_worker`
    submission. ``complete(job, result)`` fires per job as its unit is
    collected (submission order), so partial progress survives an
    interrupt."""
    # (job, reason) pairs to re-run serially in the parent.
    fallback: list[tuple[SimJob, str]] = []
    completed = 0
    cancelled = 0
    ctx = plane.current()
    traceparent = ctx.traceparent() if ctx is not None else None
    pool = ProcessPoolExecutor(max_workers=min(config.parallel, len(units)))
    try:
        futures = []
        for unit in units:
            starts = [telemetry.job_started(job.label) for job in unit.jobs]
            if unit.kind == "chunk":
                payloads = [job.payload() for job in unit.jobs]
                future = pool.submit(
                    _batch_worker, payloads, [traceparent] * len(payloads)
                )
            else:
                future = pool.submit(_worker, unit.jobs[0].payload(), traceparent)
            futures.append((unit, starts, future))
        pool_broken = False
        for unit, starts, future in futures:
            jobs = unit.jobs
            if guard.triggered and future.cancel():
                # Never started in a worker: abandon it outright.
                telemetry.running -= len(jobs)
                for job in jobs:
                    telemetry.job_cancelled(job.label)
                cancelled += len(jobs)
                continue
            # The pool died: everything unfinished goes to fallback.
            reason = "BrokenProcessPool" if pool_broken else None
            if reason is None:
                budget = None if config.timeout_s is None else config.timeout_s * len(jobs)
                try:
                    collected = future.result(timeout=budget)
                except BrokenProcessPool:
                    pool_broken = True
                    reason = "BrokenProcessPool"
                except Exception as exc:  # crash or TimeoutError
                    future.cancel()
                    reason = type(exc).__name__
            if reason is not None:
                telemetry.running -= len(jobs)
                fallback.extend((job, reason) for job in jobs)
                continue
            where = "batch" if unit.kind == "chunk" else "worker"
            if unit.kind != "chunk":
                collected = [collected]
            for job, started, (fingerprint, result, seconds) in zip(
                jobs, starts, collected
            ):
                telemetry.job_finished(
                    fingerprint, job.label, started, where=where, seconds=seconds
                )
                complete(job, result)
            completed += len(jobs)
    finally:
        # cancel_futures so a timeout doesn't wait for stragglers.
        pool.shutdown(wait=False, cancel_futures=True)

    if guard.triggered:
        # Draining: in-flight work above was collected and persisted;
        # whatever fell into the retry bucket is abandoned, not re-run.
        for job, _ in fallback:
            telemetry.job_cancelled(job.label)
            cancelled += 1
        raise HarnessInterrupted(completed, cancelled)

    for job, reason in fallback:
        if not config.retry:
            telemetry.failures += 1
            raise RuntimeError(
                f"harness job failed in worker: {job.label} ({reason})"
            )
        telemetry.job_retried(job.label, reason)
        try:
            complete(job, _run_in_parent(job, telemetry, where="retry"))
        except Exception:
            telemetry.failures += 1
            raise
