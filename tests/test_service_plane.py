"""Trace-context propagation through the service: every lifecycle event,
span and stored result of one job joins on the trace id minted at
admission — asserted both on the transport-free service and over HTTP.
"""

import asyncio
import threading

import pytest

import repro.service.pool as pool_module
from repro.service import ServiceConfig, SimulationService
from repro.service.spec import SpecError, parse_spec
from tests.test_service_server import _Server

SPEC = {"workload": "comm2", "n_requests": 60, "seed": 33}


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        shards=2, backend="thread", cache_dir=str(tmp_path), queue_limit=8
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Direct service: trace minting, span tree, event correlation
# ----------------------------------------------------------------------


def test_executed_job_carries_full_span_tree(tmp_path):
    async def main():
        service = SimulationService(_config(tmp_path))
        await service.start()
        job = service.submit(SPEC)
        assert job.trace is not None  # minted at admission, pre-dispatch
        await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()
        return job

    job = _run(main())
    trace = job.result.trace
    assert trace is not None
    assert trace["trace_id"] == job.trace.trace_id
    assert trace["root_span_id"] == job.trace.span_id
    names = {span["name"] for span in trace["spans"]}
    assert names == {
        "service.admit",
        "cache.lookup",
        "queue.wait",
        "execute",
        "store.write",
    }
    # Every span belongs to this trace; the root is service.admit.
    assert all(s["trace_id"] == job.trace.trace_id for s in trace["spans"])
    roots = [s for s in trace["spans"] if s["parent_id"] is None]
    assert [s["name"] for s in roots] == ["service.admit"]
    assert roots[0]["span_id"] == job.trace.span_id
    # describe() exposes the correlation id for the HTTP layer.
    description = job.describe()
    assert description["trace_id"] == job.trace.trace_id
    assert description["traceparent"].startswith(f"00-{job.trace.trace_id}-")


def test_every_lifecycle_event_is_correlated(tmp_path):
    async def main():
        service = SimulationService(_config(tmp_path))
        await service.start()
        job = service.submit(SPEC)
        await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()
        return job

    job = _run(main())
    events = job.events.events
    assert [e["event"] for e in events] == ["queued", "started", "finished"]
    for event in events:
        assert event["trace_id"] == job.trace.trace_id
        assert event["span_id"] == job.trace.span_id


def test_disk_cache_hit_mints_its_own_trace(tmp_path):
    """A fresh service serving the same spec from disk is a new request:
    it gets its own trace (admit + cache.lookup spans), replacing the
    original execution's annotation on the served copy only."""

    async def warm():
        service = SimulationService(_config(tmp_path))
        await service.start()
        job = service.submit(SPEC)
        await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()
        return job.trace.trace_id

    first_trace_id = _run(warm())

    async def reuse():
        service = SimulationService(_config(tmp_path))
        await service.start()
        job = service.submit(SPEC)
        assert job.status == "done" and job.cached == "disk"
        await service.shutdown()
        return job

    job = _run(reuse())
    trace = job.result.trace
    assert trace["trace_id"] == job.trace.trace_id
    assert trace["trace_id"] != first_trace_id
    names = [span["name"] for span in trace["spans"]]
    assert "service.admit" in names and "cache.lookup" in names
    assert "execute" not in names  # nothing executed on the hit path
    for event in job.events.events:
        assert event["trace_id"] == job.trace.trace_id


def test_retry_path_still_stamps_execute_span(tmp_path, monkeypatch):
    """A worker crash recovered by the in-process retry must not lose
    correlation: the retried execution is stamped manually (the executor
    thread carries no ambient context)."""
    calls = {"n": 0}
    real = pool_module._batch_worker

    def crash_once(payloads, traceparents=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("simulated worker loss")
        return real(payloads, traceparents)

    monkeypatch.setattr(pool_module, "_thread_chunk_worker", crash_once)

    async def main():
        service = SimulationService(_config(tmp_path, shards=1))
        await service.start()
        job = service.submit(SPEC)
        await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()
        return job

    job = _run(main())
    assert job.status == "done" and job.where == "retry"
    trace = job.result.trace
    assert trace["trace_id"] == job.trace.trace_id
    assert "execute" in [span["name"] for span in trace["spans"]]
    assert all(
        e["trace_id"] == job.trace.trace_id for e in job.events.events
    )


def test_coalesced_submission_shares_one_trace(tmp_path, monkeypatch):
    """A duplicate spec coalescing onto an in-flight job joins that
    job's trace — one execution, one correlation id for both tenants."""
    gate = threading.Event()
    real = pool_module._batch_worker

    def gated_worker(payloads, traceparents=None):
        assert gate.wait(60)
        return real(payloads, traceparents)

    monkeypatch.setattr(pool_module, "_thread_chunk_worker", gated_worker)

    async def main():
        service = SimulationService(_config(tmp_path))
        await service.start()
        first = service.submit(SPEC)
        await asyncio.sleep(0.05)
        second = service.submit(dict(SPEC))
        assert second is first and first.submissions == 2
        gate.set()
        await service.wait(first.fingerprint, timeout=60)
        await service.shutdown()
        return first

    job = _run(main())
    assert job.result.trace["trace_id"] == job.trace.trace_id


# ----------------------------------------------------------------------
# Spec: the metrics knob rides the same validated admission path
# ----------------------------------------------------------------------


def test_spec_metrics_round_trip():
    spec = parse_spec({**SPEC, "metrics": True})
    assert spec.metrics is True
    assert spec.canonical()["metrics"] is True
    # Distinct artifacts: a metrics job must not collide with the plain
    # fingerprint in any cache tier.
    plain = parse_spec(SPEC)
    assert spec.to_job().fingerprint != plain.to_job().fingerprint


@pytest.mark.parametrize("field", ["metrics"])
def test_spec_rejects_non_boolean_knobs(field):
    with pytest.raises(SpecError, match=f"'{field}' must be a boolean"):
        parse_spec({**SPEC, field: "yes"})


def test_metrics_job_through_the_service(tmp_path):
    """The acceptance slice minus HTTP: a metrics job takes the scalar
    engine (the observability hub is scalar-only) and yields its metrics
    on a trace-stamped result."""

    async def main():
        service = SimulationService(_config(tmp_path))
        await service.start()
        job = service.submit({**SPEC, "metrics": True})
        await service.wait(job.fingerprint, timeout=60)
        await service.shutdown()
        return job

    job = _run(main())
    assert job.status == "done"
    assert job.where == "worker"
    assert job.result.metrics is not None
    assert "sim.commands" in job.result.metrics
    assert job.result.trace["trace_id"] == job.trace.trace_id


# ----------------------------------------------------------------------
# HTTP: headers + two followers of one coalesced fingerprint
# ----------------------------------------------------------------------


def _check_lifecycle(events, trace_id, who):
    kinds = [event["event"] for event in events]
    assert kinds.index("queued") <= kinds.index("started") <= kinds.index(
        "finished"
    ), (who, kinds)
    assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
    for event in events:
        assert event.get("trace_id") == trace_id, (who, event)
        assert event.get("span_id"), (who, event)


def test_http_trace_headers_and_two_follower_ordering(tmp_path):
    """Two clients following the same fingerprint — the second arriving
    via a coalesced submission mid-flight — observe identical, ordered,
    fully-correlated NDJSON lifecycles, matching the response headers."""
    gate = threading.Event()
    real = pool_module._thread_chunk_worker

    def gated_worker(payloads, traceparents=None):
        assert gate.wait(60)
        return real(payloads, traceparents)

    pool_module._thread_chunk_worker = gated_worker
    try:
        with _Server(
            ServiceConfig(
                port=0, shards=2, backend="thread", cache_dir=str(tmp_path)
            )
        ) as client:
            response, headers = client.submit_with_headers(
                {**SPEC, "seed": 34}
            )
            trace_id = headers["X-Trace-Id"]
            assert len(trace_id) == 32
            assert headers["Traceparent"].startswith(f"00-{trace_id}-")
            assert response["trace_id"] == trace_id

            # Coalesce a second tenant onto the gated in-flight job: the
            # duplicate reports the *same* job and the same trace.
            duplicate, dup_headers = client.submit_with_headers(
                {**SPEC, "seed": 34}
            )
            assert duplicate["job_id"] == response["job_id"]
            assert dup_headers["X-Trace-Id"] == trace_id
            gate.set()

            job_id = response["job_id"]
            first_view = list(client.events(job_id))
            second_view = list(client.events(job_id))
            _check_lifecycle(first_view, trace_id, "first follower")
            _check_lifecycle(second_view, trace_id, "second follower")
            assert first_view == second_view

            stored = client.result(job_id)["result"]
            assert stored["trace"]["trace_id"] == trace_id
    finally:
        gate.set()
        pool_module._thread_chunk_worker = real
