"""Service core: coalescing, backpressure, cache tiers, retry, shutdown.

All tests drive the transport-free :class:`SimulationService` directly
with the thread backend (startup-free, monkeypatchable worker), wrapped
in ``asyncio.run`` — the same single-threaded event-loop discipline the
HTTP server uses.
"""

import asyncio
import threading

import pytest

import repro.service.pool as pool_module
from repro.service import QueueFull, ServiceConfig, SimulationService
from repro.service.spec import SpecError

SPEC = {"workload": "comm2", "n_requests": 60, "seed": 9}
#: Page allocation keeps a spec off the kernel: it takes ``pool.run``.
SCALAR_SPEC = {**SPEC, "allocation": "collision-free"}


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        shards=2, backend="thread", cache_dir=str(tmp_path), queue_limit=8
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class _GatedWorker:
    """Wraps a thread-backend worker entry behind a gate the test
    controls: by default the kernel-chunk entry, which plain specs take."""

    def __init__(self, entry=None):
        self.entry = entry if entry is not None else pool_module._batch_worker
        self.gate = threading.Event()
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        assert self.gate.wait(60), "test never opened the worker gate"
        return self.entry(*args)


def test_duplicate_inflight_submissions_coalesce(tmp_path, monkeypatch):
    """The acceptance property: a duplicate spec submitted while the
    original is running coalesces — one execution, exactly one store
    write, both submitters see the same terminal job."""
    gated = _GatedWorker()
    monkeypatch.setattr(pool_module, "_thread_chunk_worker", gated)

    async def main():
        service = SimulationService(_config(tmp_path))
        await service.start()
        first = service.submit(SPEC)
        await asyncio.sleep(0.05)  # let the dispatcher move it to running
        second = service.submit(dict(reversed(list(SPEC.items()))))
        assert second is first
        assert first.submissions == 2
        assert service.metrics.counter("service.coalesced").value == 1
        gated.gate.set()
        await service.wait(first.fingerprint, timeout=60)
        assert first.status == "done"
        await service.shutdown()
        return service

    service = asyncio.run(main())
    assert service.metrics.counter("cache.writes").value == 1
    assert len(list(service.cache.directory.glob("*.json"))) == 1
    assert service.telemetry.executed == 1


def test_completed_job_serves_followup_submissions(tmp_path):
    async def main():
        service = SimulationService(_config(tmp_path))
        await service.start()
        job = service.submit(SPEC)
        await service.wait(job.fingerprint, timeout=60)
        again = service.submit(SPEC)
        assert again is job
        assert again.submissions == 2
        tiers = service.metrics.counter("service.cache_hits", tier="registry")
        assert tiers.value == 1
        await service.shutdown()
        return service

    service = asyncio.run(main())
    assert service.telemetry.executed == 1


def test_fresh_service_hits_the_shared_disk_cache(tmp_path):
    """A second service instance over the same cache directory serves the
    spec without executing anything — the multi-tenant contract."""

    async def warm():
        service = SimulationService(_config(tmp_path))
        await service.start()
        job = service.submit(SPEC)
        await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()

    asyncio.run(warm())

    async def reuse():
        service = SimulationService(_config(tmp_path))
        await service.start()
        job = service.submit(SPEC)
        assert job.status == "done"  # terminal before any dispatch
        assert job.cached == "disk"
        assert [e["event"] for e in job.events.events] == [
            "queued",
            "cache_hit",
            "finished",
        ]
        await service.shutdown()
        return service

    service = asyncio.run(reuse())
    assert service.telemetry.executed == 0
    assert service.metrics.counter("cache.hits").value == 1
    assert service.metrics.counter("service.cache_hits", tier="disk").value == 1


def test_full_queue_rejects_with_backpressure(tmp_path, monkeypatch):
    gated = _GatedWorker()
    monkeypatch.setattr(pool_module, "_thread_chunk_worker", gated)

    async def main():
        service = SimulationService(_config(tmp_path, shards=1, queue_limit=1))
        await service.start()
        running = service.submit({**SPEC, "seed": 100})
        await asyncio.sleep(0.05)  # dispatcher takes it; queue is empty
        queued = service.submit({**SPEC, "seed": 101})
        with pytest.raises(QueueFull, match="admission queue is full"):
            service.submit({**SPEC, "seed": 102})
        rejected = service.metrics.counter("service.rejected", reason="queue_full")
        assert rejected.value == 1
        # The rejected fingerprint was never admitted: no ghost job.
        assert len(service.registry) == 2
        gated.gate.set()
        await service.wait(running.fingerprint, timeout=60)
        await service.wait(queued.fingerprint, timeout=60)
        # Backpressure is transient: the same spec admits once drained.
        retry = service.submit({**SPEC, "seed": 102})
        await service.wait(retry.fingerprint, timeout=60)
        assert retry.status == "done"
        await service.shutdown()

    asyncio.run(main())


def test_shutdown_cancels_queued_drains_running(tmp_path, monkeypatch):
    gated = _GatedWorker()
    monkeypatch.setattr(pool_module, "_thread_chunk_worker", gated)

    async def main():
        service = SimulationService(_config(tmp_path, shards=1, queue_limit=8))
        await service.start()
        running = service.submit({**SPEC, "seed": 200})
        await asyncio.sleep(0.05)
        queued = [service.submit({**SPEC, "seed": 200 + i}) for i in (1, 2)]
        drain = asyncio.create_task(service.shutdown())
        await asyncio.sleep(0.05)
        with pytest.raises(Exception, match="draining"):
            service.submit({**SPEC, "seed": 300})
        gated.gate.set()
        summary = await drain
        assert summary == {"drained": 1, "cancelled": 2}
        assert running.status == "done"
        for job in queued:
            assert job.status == "cancelled"
            assert job.events.events[-1]["event"] == "cancelled"
        # The running job persisted; the cancelled ones never wrote.
        assert len(list(service.cache.directory.glob("*.json"))) == 1
        return service

    service = asyncio.run(main())
    assert service.telemetry.cancelled == 2


def test_worker_crash_is_retried_with_reason(tmp_path, monkeypatch):
    def crashing_worker(payloads, traceparents=None):
        raise OSError("simulated worker loss")

    monkeypatch.setattr(pool_module, "_thread_chunk_worker", crashing_worker)

    async def main():
        service = SimulationService(_config(tmp_path, shards=1))
        await service.start()
        job = service.submit(SPEC)
        await service.wait(job.fingerprint, timeout=60)
        assert job.status == "done"  # the in-process retry recovered
        assert job.where == "retry"
        kinds = [e["event"] for e in job.events.events]
        assert "retrying" in kinds
        await service.shutdown()
        return service

    service = asyncio.run(main())
    assert service.telemetry.retried == 1
    assert service.telemetry.retry_reasons == {"OSError": 1}
    assert service.metrics.counter("service.retries", reason="OSError").value == 1


def test_failed_job_reports_and_does_not_poison(tmp_path, monkeypatch):
    attempts = {"n": 0}

    def crashing_worker(payloads, traceparents=None):
        raise RuntimeError("worker down")

    monkeypatch.setattr(pool_module, "_thread_chunk_worker", crashing_worker)

    from repro.harness.jobs import SimJob

    original = SimJob.execute

    def flaky_execute(self):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("retry also failed")
        return original(self)

    monkeypatch.setattr(SimJob, "execute", flaky_execute)

    async def main():
        service = SimulationService(_config(tmp_path, shards=1))
        await service.start()
        job = service.submit(SPEC)
        await service.wait(job.fingerprint, timeout=60)
        assert job.status == "failed"
        assert "retry also failed" in job.error
        assert job.events.events[-1]["event"] == "failed"
        assert service.metrics.counter("service.failed").value == 1
        # A failed fingerprint is not poisoned: resubmission re-executes.
        fresh = service.submit(SPEC)
        assert fresh is not job
        await service.wait(fresh.fingerprint, timeout=60)
        assert fresh.status == "done"
        await service.shutdown()
        return service

    service = asyncio.run(main())
    assert service.telemetry.failures == 1


def test_invalid_spec_rejected_before_admission(tmp_path):
    async def main():
        service = SimulationService(_config(tmp_path))
        await service.start()
        with pytest.raises(SpecError):
            service.submit({"workload": "comm2", "bogus": True})
        assert len(service.registry) == 0
        await service.shutdown()

    asyncio.run(main())


def test_metrics_snapshot_merges_harness_and_service(tmp_path):
    async def main():
        service = SimulationService(_config(tmp_path))
        await service.start()
        job = service.submit(SPEC)
        await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()
        return service

    service = asyncio.run(main())
    snapshot = service.metrics_snapshot()
    assert "harness.executed" in snapshot  # telemetry bridge
    assert "service.completed" in snapshot
    assert "cache.writes" in snapshot
    assert snapshot["service.completed"]["series"][0]["value"] == 1
    description = service.describe()
    assert description["jobs"] == {"done": 1}
    assert description["cache"]["writes"] == 1


# ----------------------------------------------------------------------
# Coalescing window: queued compatible jobs drain into one kernel chunk
# ----------------------------------------------------------------------


def _distinct_specs(n):
    return [{"workload": "comm2", "n_requests": 60, "seed": 30 + i} for i in range(n)]


def test_queued_compatible_jobs_coalesce_into_kernel_chunk(tmp_path, monkeypatch):
    """With the dispatcher busy, distinct compatible submissions queue up
    and drain into a single kernel chunk — and every coalesced result is
    bit-identical to the scalar engine's for the same spec (checked
    through the cross-engine differ)."""
    from tests.equivalence_harness import diff_results

    gated = _GatedWorker(pool_module._worker)
    monkeypatch.setattr(pool_module, "_thread_worker", gated)
    specs = [SCALAR_SPEC] + _distinct_specs(3)

    async def main():
        service = SimulationService(_config(tmp_path, shards=1))
        await service.start()
        first = service.submit(specs[0])
        await asyncio.sleep(0.05)  # dispatcher is inside the gated worker
        queued = [service.submit(spec) for spec in specs[1:]]
        gated.gate.set()
        jobs = [first] + queued
        for job in jobs:
            await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()
        return service, jobs

    service, jobs = asyncio.run(main())
    assert all(job.status == "done" for job in jobs)
    assert gated.calls == 1  # only the first job took the single-job path
    assert service.metrics.counter("service.batch_chunks").value == 1
    assert service.metrics.counter("service.batched_lanes").value == 3
    wheres = [record.where for record in service.telemetry.records]
    assert wheres.count("batch") == 3
    for job in jobs:
        mismatch = diff_results(
            job.result, job.job.execute(), f"seed={job.job.spec}"
        )
        assert mismatch is None, mismatch


def test_lone_compatible_job_runs_as_a_one_lane_chunk(tmp_path):
    async def main():
        service = SimulationService(_config(tmp_path, shards=1))
        await service.start()
        job = service.submit(SPEC)
        await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()
        return service, job

    service, job = asyncio.run(main())
    assert job.status == "done"
    assert job.where == "batch"
    assert service.metrics.counter("service.batch_chunks").value == 1
    assert service.metrics.counter("service.batched_lanes").value == 1


def test_incompatible_job_takes_the_single_job_path(tmp_path, monkeypatch):
    def no_chunk(payloads, traceparents=None):
        raise AssertionError("an allocation spec reached the kernel")

    monkeypatch.setattr(pool_module, "_thread_chunk_worker", no_chunk)

    async def main():
        service = SimulationService(_config(tmp_path, shards=1))
        await service.start()
        job = service.submit(SCALAR_SPEC)
        await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()
        return service, job

    service, job = asyncio.run(main())
    assert job.status == "done"
    assert job.where == "worker"
    assert service.metrics.counter("service.batch_chunks").value == 0
