"""The simulation service: admission, dedupe, dispatch, accounting.

:class:`SimulationService` is the transport-free core the HTTP front-end
(:mod:`repro.service.server`) wraps. One instance owns:

- the **job registry** (fingerprint-keyed; identical in-flight requests
  coalesce to one execution and one store write),
- the **memo + artifact cache** (RAM tier, then the shared on-disk
  :class:`~repro.service.cache.ArtifactCache` with LRU eviction),
- per-shard **bounded admission queues** — a full queue rejects with
  :class:`QueueFull`, which the HTTP layer maps to 429 +
  ``Retry-After`` (explicit backpressure, never unbounded buffering),
- the **sharded worker pool**, with the harness's retry-once policy and
  its telemetry accounting (retries are counted per reason, exactly as
  the one-shot executor now does),
- the **metrics registry** (``service.*`` + ``cache.*``) merged with the
  riding harness :class:`~repro.harness.telemetry.Telemetry` counters
  for the ``/metrics`` endpoint.

Every state transition publishes to the job's
:class:`~repro.service.events.EventStream`, which the NDJSON endpoint
streams; all service state is touched from the event-loop thread only
(workers hand back results through ``run_in_executor`` futures), so the
core needs no locks.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.harness.store import DEFAULT_CACHE_DIR, serialize_result
from repro.harness.telemetry import Telemetry
from repro.obs import plane
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import ExemplarStore
from repro.service.cache import ArtifactCache
from repro.service.events import TERMINAL_EVENTS
from repro.service.pool import ShardedWorkerPool, WorkerCrash
from repro.service.registry import ACTIVE_STATES, JobRegistry, ServiceJob
from repro.service.spec import parse_spec
from repro.sim.results import RunResult

#: Histogram buckets for job execution / queue-wait seconds.
_SECONDS_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)


class QueueFull(RuntimeError):
    """Admission control rejected a submission; maps to HTTP 429."""


class Draining(RuntimeError):
    """The service is shutting down; maps to HTTP 503."""


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs for one service instance.

    Attributes:
        host/port: Bind address (``port=0`` picks a free port).
        shards: Worker shards — the service's execution concurrency.
        backend: ``"process"`` (isolated workers) or ``"thread"``.
        queue_limit: Queued jobs admitted per shard before 429.
        retry_after_s: ``Retry-After`` hint sent with 429 responses.
        cache_dir: Shared artifact-cache root (``None`` = memory only).
        cache_max_bytes: LRU size cap for the artifact cache.
        max_finished: Terminal jobs kept for status/event replay.
        max_body_bytes: Largest accepted HTTP request body.
    """

    host: str = "127.0.0.1"
    port: int = 8763
    shards: int = 2
    backend: str = "process"
    queue_limit: int = 64
    retry_after_s: float = 1.0
    cache_dir: str | None = DEFAULT_CACHE_DIR
    cache_max_bytes: int | None = None
    max_finished: int = 4096
    max_body_bytes: int = 1 << 20


class SimulationService:
    """Transport-free service core; see module docstring."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = MetricsRegistry()
        self.telemetry = Telemetry()
        #: Latest trace-id exemplar per latency histogram, attached to
        #: the OpenMetrics rendering of ``/metrics``.
        self.exemplars = ExemplarStore()
        self.cache: ArtifactCache | None = (
            ArtifactCache(
                self.config.cache_dir,
                max_bytes=self.config.cache_max_bytes,
                registry=self.metrics,
            )
            if self.config.cache_dir is not None
            else None
        )
        self.memo: dict[str, RunResult] = {}
        self.registry = JobRegistry(max_finished=self.config.max_finished)
        self.pool = ShardedWorkerPool(self.config.shards, self.config.backend)
        self._queues: list[asyncio.Queue] = []
        self._dispatchers: list[asyncio.Task] = []
        self._draining = False
        self.started_at = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Create the admission queues and start one dispatcher per shard."""
        if self._dispatchers:
            return
        self._queues = [
            asyncio.Queue(maxsize=self.config.queue_limit)
            for _ in range(self.pool.shards)
        ]
        self._dispatchers = [
            asyncio.create_task(self._dispatch(shard), name=f"dispatch-{shard}")
            for shard in range(self.pool.shards)
        ]

    async def shutdown(self, drain: bool = True) -> dict:
        """Graceful shutdown: cancel queued jobs, drain in-flight ones.

        Mirrors the harness executor's signal policy: work already
        executing completes (and persists); work still queued is
        cancelled and its event streams closed. Returns a summary dict.
        """
        self._draining = True
        cancelled = 0
        for queue in self._queues:
            while True:
                try:
                    job = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if job is None or job.status != "queued":
                    continue
                job.status = "cancelled"
                job.finished = time.monotonic()
                self.telemetry.job_cancelled(job.job.label)
                self.metrics.counter("service.cancelled").inc()
                job.events.publish("cancelled", reason="shutdown")
                self.registry.finish(job)
                cancelled += 1
        for queue in self._queues:
            queue.put_nowait(None)  # sentinel: dispatcher exits after drain
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        self.pool.shutdown(wait=drain)
        completed = self.telemetry.executed
        return {"drained": completed, "cancelled": cancelled}

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # submission (event-loop thread)

    def submit(self, payload: object) -> ServiceJob:
        """Admit one spec: dedupe, serve from cache, or enqueue.

        Raises :class:`~repro.service.spec.SpecError` (400),
        :class:`QueueFull` (429) or :class:`Draining` (503).
        """
        self.metrics.counter("service.submissions").inc()
        if self._draining:
            raise Draining("service is draining; resubmit elsewhere")
        admit_start = time.time()
        spec = parse_spec(payload)
        sim_job = spec.to_job()
        fingerprint = sim_job.fingerprint

        existing = self.registry.get(fingerprint)
        if existing is not None and (
            existing.status in ACTIVE_STATES or existing.status == "done"
        ):
            existing.submissions += 1
            if existing.status in ACTIVE_STATES:
                self.metrics.counter("service.coalesced").inc()
            else:
                self.metrics.counter("service.cache_hits", tier="registry").inc()
            return existing
        # failed/cancelled ancestors don't poison the fingerprint: fall
        # through and resubmit a fresh job under the same identity.

        # Every admitted job gets a fresh trace context; it rides the
        # registry entry, the event stream, the worker hop and the
        # RunResult, so one trace id joins the whole lifecycle.
        ctx = plane.new_trace()
        job = ServiceJob(job=sim_job, spec=spec.canonical(), trace=ctx)
        job.events.trace_id = ctx.trace_id
        job.events.span_id = ctx.span_id

        lookup_start = time.time()
        result = self.memo.get(fingerprint)
        tier = "memory" if result is not None else None
        if result is None and self.cache is not None:
            result = self.cache.get(fingerprint)  # counts cache.hits/.misses
            if result is not None:
                tier = "disk"
                self.memo[fingerprint] = result
        job.spans.append(plane.span("cache.lookup", ctx, lookup_start, time.time()))
        if result is not None:
            self.telemetry.cache_hit(from_store=tier == "disk")
            self.metrics.counter("service.cache_hits", tier=tier).inc()
            job.status = "done"
            job.cached = tier
            job.seconds = 0.0
            job.finished = time.monotonic()
            job.events.publish("queued", job_id=fingerprint)
            job.events.publish("cache_hit", tier=tier)
            job.events.publish("finished", seconds=0.0, cached=tier)
            job.spans.append(
                plane.span(
                    "service.admit",
                    ctx,
                    admit_start,
                    time.time(),
                    span_id=ctx.span_id,
                    parent_id=None,
                )
            )
            # The served copy carries this submission's trace; the memo
            # keeps the unstamped original for the next hit.
            job.result = plane.stamp_result(result, ctx, job.spans)
            self.registry.install(job)
            self.registry.finish(job)
            return job

        shard = self.pool.shard_of(fingerprint)
        job.shard = shard
        try:
            self._queues[shard].put_nowait(job)
        except asyncio.QueueFull:
            self.metrics.counter("service.rejected", reason="queue_full").inc()
            raise QueueFull(
                f"shard {shard} admission queue is full "
                f"({self.config.queue_limit} jobs); retry after "
                f"{self.config.retry_after_s:g}s"
            ) from None
        self.registry.install(job)
        self.telemetry.queued += 1
        self._observe_queue_depth()
        job.events.publish("queued", job_id=fingerprint, shard=shard)
        job.spans.append(
            plane.span(
                "service.admit",
                ctx,
                admit_start,
                time.time(),
                span_id=ctx.span_id,
                parent_id=None,
            )
        )
        return job

    def lookup(self, fingerprint: str) -> dict:
        """One batch-query entry for ``fingerprint``: live registry
        state first (with the serialized result when terminal), then the
        memo and artifact-cache tiers — an artifact computed by an
        earlier process still answers — else ``{"status": "unknown"}``.
        """
        job = self.registry.get(fingerprint)
        if job is not None:
            entry: dict = {"status": job.status, "cached": job.cached}
            if job.status == "done":
                entry["where"] = job.where
                entry["result"] = serialize_result(job.result)
            elif job.status == "failed":
                entry["error"] = job.error
            return entry
        result = self.memo.get(fingerprint)
        tier = "memory" if result is not None else None
        if result is None and self.cache is not None:
            result = self.cache.get(fingerprint)
            if result is not None:
                tier = "disk"
                self.memo[fingerprint] = result
        if result is not None:
            self.metrics.counter("service.cache_hits", tier=tier).inc()
            return {
                "status": "done",
                "cached": tier,
                "result": serialize_result(result),
            }
        return {"status": "unknown"}

    async def wait(self, fingerprint: str, timeout: float | None = None) -> ServiceJob:
        """Block until the job reaches a terminal state (test/client aid)."""
        job = self.registry.get(fingerprint)
        if job is None:
            raise KeyError(fingerprint)

        async def _follow() -> ServiceJob:
            async for event in job.events.follow():
                if event["event"] in TERMINAL_EVENTS:
                    break
            return job

        return await asyncio.wait_for(_follow(), timeout)

    # ------------------------------------------------------------------
    # dispatch (one task per shard)

    async def _dispatch(self, shard: int) -> None:
        from repro.batch import job_incompatibility

        queue = self._queues[shard]
        while True:
            job = await queue.get()
            if job is None:
                return
            if job.status != "queued":
                continue
            compatible = job_incompatibility(job.job) is None
            chunk = self._drain_chunk(job, queue) if compatible else None
            self._observe_queue_depth()
            if chunk is not None:
                await self._run_chunk(chunk, shard)
            else:
                await self._run(job, shard)

    def _drain_chunk(self, first, queue) -> list[ServiceJob]:
        """The coalescing window: greedily drain queued batch-compatible
        jobs waiting behind the compatible job ``first`` into one kernel
        chunk (a lone job is a one-lane chunk).

        Only jobs that survived identity-coalescing and the artifact
        cache ever reach the queue, so everything drained here is
        genuinely cold work. Jobs the compat predicate refuses go back
        to the tail of the queue (the event loop owns both ends, so the
        re-queue is race-free).
        """
        from repro.batch import MAX_LANES, job_incompatibility

        chunk = [first]
        leftovers = []
        while len(chunk) < MAX_LANES:
            try:
                candidate = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if candidate is None:
                # Shutdown sentinel: hand it back so the dispatch loop
                # still exits after this chunk drains.
                queue.put_nowait(None)
                break
            if candidate.status != "queued":
                continue
            if job_incompatibility(candidate.job) is None:
                chunk.append(candidate)
            else:
                leftovers.append(candidate)
        for candidate in leftovers:
            queue.put_nowait(candidate)
        return chunk

    def _start(self, job: ServiceJob, shard: int, lanes: int | None = None) -> float:
        """Move one queued job to running; returns the telemetry stamp."""
        ctx = job.trace
        job.status = "running"
        job.started = time.monotonic()
        started = self.telemetry.job_started(job.job.label)
        wait_s = job.started - job.created
        self.metrics.histogram(
            "service.queue_wait_seconds", buckets=_SECONDS_BUCKETS
        ).observe(wait_s)
        if ctx is not None:
            now = time.time()
            job.spans.append(plane.span("queue.wait", ctx, now - wait_s, now))
            self.exemplars.record("service.queue_wait_seconds", wait_s, ctx.trace_id)
        extra = {} if lanes is None else {"lanes": lanes}
        job.events.publish(
            "started", shard=shard, backend=self.pool.backend, **extra
        )
        return started

    def _complete(
        self, job: ServiceJob, result: RunResult, seconds: float, where: str,
        started: float,
    ) -> None:
        """Terminal bookkeeping for one successful job: stamping, memo,
        store write, telemetry, metrics, events, registry."""
        ctx = job.trace
        if ctx is not None and (
            result.trace is None or result.trace.get("trace_id") != ctx.trace_id
        ):
            # Worker predates the plane (or dropped the header): keep
            # the correlation id on the artifact anyway.
            result = plane.stamp_result(result, ctx)
        job.seconds = seconds
        job.where = where
        job.status = "done"
        job.finished = time.monotonic()
        self.memo[job.fingerprint] = result
        if self.cache is not None:
            # The single store write for this fingerprint, however many
            # submissions coalesced onto it.
            begin = time.time()
            self.cache.put(job.fingerprint, result)
            if ctx is not None:
                job.spans.append(plane.span("store.write", ctx, begin, time.time()))
        if ctx is not None:
            self.exemplars.record("service.job_seconds", seconds, ctx.trace_id)
            # Served result carries the full span tree: the worker's
            # execute span (already on result.trace) merged with the
            # service-side admit / cache.lookup / queue.wait /
            # store.write spans.
            job.result = plane.stamp_result(result, ctx, job.spans)
            job.spans = list(job.result.trace["spans"])
        else:
            job.result = result
        self.telemetry.job_finished(
            job.fingerprint, job.job.label, started, where, seconds=seconds
        )
        self.metrics.counter("service.completed").inc()
        self.metrics.histogram(
            "service.job_seconds", buckets=_SECONDS_BUCKETS
        ).observe(seconds)
        job.events.publish("finished", seconds=round(seconds, 6), where=where)
        self.registry.finish(job)

    async def _retry_scalar(self, job: ServiceJob, reason: str, started: float) -> None:
        """Retry-once in-process after a worker/chunk crash, with the
        reason on the record — the same never-silent policy as the
        harness executor."""
        loop = asyncio.get_running_loop()
        ctx = job.trace
        self.telemetry.job_retried(job.job.label, reason)
        self.metrics.counter("service.retries", reason=reason).inc()
        job.events.publish("retrying", reason=reason)
        begin = time.perf_counter()
        wall = time.time()
        try:
            result = await loop.run_in_executor(None, job.job.execute)
        except Exception as exc:
            self._fail(job, f"{type(exc).__name__}: {exc}")
            return
        seconds = time.perf_counter() - begin
        # run_in_executor doesn't propagate contextvars, so the
        # retry path stamps its execute span by hand.
        if ctx is not None:
            result = plane.stamp_result(
                result, ctx, [plane.span("execute", ctx, wall, time.time())]
            )
        self._complete(job, result, seconds, "retry", started)

    async def _run(self, job: ServiceJob, shard: int) -> None:
        ctx = job.trace
        started = self._start(job, shard)
        try:
            result, seconds, where = await self.pool.run(
                job.job, ctx.traceparent() if ctx is not None else None
            )
        except WorkerCrash as crash:
            await self._retry_scalar(job, crash.reason, started)
            return
        self._complete(job, result, seconds, where, started)

    async def _run_chunk(self, chunk: list[ServiceJob], shard: int) -> None:
        """Run coalesced jobs as lanes of one kernel invocation, fanning
        results, events, spans and metrics back out per lane.

        A chunk-level failure unwinds to the per-job scalar retry — each
        lane gets the harness's retry-once policy with the reason
        counted, so a kernel refusal can slow a chunk down but never
        lose or corrupt a lane.
        """
        starts = [self._start(job, shard, lanes=len(chunk)) for job in chunk]
        self.metrics.counter("service.batch_chunks").inc()
        self.metrics.counter("service.batched_lanes").inc(len(chunk))
        try:
            outputs = await self.pool.run_chunk(
                [job.job for job in chunk],
                [
                    job.trace.traceparent() if job.trace is not None else None
                    for job in chunk
                ],
                shard=shard,
            )
        except WorkerCrash as crash:
            for job, started in zip(chunk, starts):
                await self._retry_scalar(job, crash.reason, started)
            return
        for job, started, (result, seconds) in zip(chunk, starts, outputs):
            self._complete(job, result, seconds, "batch", started)

    def _fail(self, job: ServiceJob, error: str) -> None:
        job.status = "failed"
        job.error = error
        job.finished = time.monotonic()
        self.telemetry.running -= 1
        self.telemetry.failures += 1
        self.metrics.counter("service.failed").inc()
        job.events.publish("failed", error=error)
        self.registry.finish(job)

    # ------------------------------------------------------------------
    # accounting

    def _observe_queue_depth(self) -> None:
        self.metrics.gauge("service.queue_depth").set(
            sum(queue.qsize() for queue in self._queues)
        )

    def metrics_snapshot(self) -> dict:
        """Service + cache metrics merged with the harness telemetry."""
        if self.cache is not None:
            # Occupancy gauges go stale between writes (other tenants
            # share the directory); re-stat so every scrape is current.
            self.cache.refresh_gauges()
        merged = dict(self.telemetry.to_metrics().snapshot())
        merged.update(self.metrics.snapshot())
        return dict(sorted(merged.items()))

    def describe(self) -> dict:
        """Health/status JSON for the HTTP front-end."""
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "shards": self.pool.shards,
            "backend": self.pool.backend,
            "queue_depth": sum(queue.qsize() for queue in self._queues),
            "queue_limit": self.config.queue_limit,
            "jobs": self.registry.counts(),
            "cache": self.cache.stats() if self.cache is not None else None,
        }
