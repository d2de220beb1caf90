"""HTTP front-end: end-to-end over a real socket with the stdlib client."""

import json
import threading

import pytest

import repro.service.pool as pool_module
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
    SimulationService,
)

SPEC = {"workload": "comm2", "n_requests": 60, "seed": 21}


class _Server:
    """Runs a ServiceServer on its own thread + event loop."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.ready = threading.Event()
        self.summary = None
        self.host = self.port = None
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        import asyncio

        async def main():
            self.service = SimulationService(self.config)
            server = ServiceServer(self.service)
            self.host, self.port = await server.start()
            self.ready.set()
            # Signal handlers live on the main thread only.
            self.summary = await server.serve_forever(handle_signals=False)

        asyncio.run(main())

    def __enter__(self) -> ServiceClient:
        self.thread.start()
        assert self.ready.wait(30), "server never came up"
        return ServiceClient(self.host, self.port, timeout=60)

    def __exit__(self, *exc_info):
        if self.thread.is_alive():
            try:
                ServiceClient(self.host, self.port).shutdown()
            except Exception:
                pass
            self.thread.join(timeout=60)


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        port=0, shards=2, backend="thread", cache_dir=str(tmp_path), queue_limit=8
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_submit_stream_result_roundtrip(tmp_path):
    with _Server(_config(tmp_path)) as client:
        health = client.health()
        assert health["status"] == "ok"
        assert health["backend"] == "thread"

        accepted = client.submit(SPEC)
        assert accepted["status"] in ("queued", "running", "done")
        job_id = accepted["job_id"]

        events = list(client.events(job_id))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "finished"
        assert [event["seq"] for event in events] == list(range(len(events)))

        # Replay: a late subscriber still sees the full history.
        replay = list(client.events(job_id))
        assert [e["event"] for e in replay] == kinds
        # ...and ?since skips what the client already has.
        tail = list(client.events(job_id, since=len(events) - 1))
        assert [e["event"] for e in tail] == ["finished"]

        result = client.result(job_id)
        assert result["result"]["execution_cycles"] > 0

        # Duplicate submission coalesces onto the finished job.
        duplicate = client.submit(SPEC)
        assert duplicate["job_id"] == job_id
        assert duplicate["status"] == "done"
        assert duplicate["submissions"] == 2

        status = client.status(job_id)
        assert status["status"] == "done"
        assert client.cache_stats()["cache"]["writes"] == 1


def test_error_statuses(tmp_path):
    with _Server(_config(tmp_path)) as client:
        with pytest.raises(ServiceError) as bad_spec:
            client.submit({"workload": "comm2", "bogus": 1})
        assert bad_spec.value.status == 400

        with pytest.raises(ServiceError) as bad_workload:
            client.submit({"workload": "no-such-workload"})
        assert bad_workload.value.status == 400
        assert "unknown workload" in str(bad_workload.value)

        with pytest.raises(ServiceError) as missing:
            client.status("f" * 64)
        assert missing.value.status == 404

        status, payload, _ = client._request("POST", "/v1/jobs", {"workload": 7})
        assert status == 400 and "string" in payload["error"]

        status, _, _ = client._request("GET", "/no/such/route")
        assert status == 404

        # A pending job's result is a 409, not an error page.
        gated = threading.Event()
        real = pool_module._thread_chunk_worker

        def gated_worker(payloads, traceparents=None):
            gated.wait(60)
            return real(payloads, traceparents)

        pool_module._thread_chunk_worker = gated_worker
        try:
            accepted = client.submit({**SPEC, "seed": 77})
            status, payload, _ = client._request(
                "GET", f"/v1/jobs/{accepted['job_id']}/result"
            )
            assert status == 409
            assert payload["status"] in ("queued", "running")
        finally:
            gated.set()
            pool_module._thread_chunk_worker = real
        client.wait(accepted["job_id"])


def test_queue_full_maps_to_429_with_retry_after(tmp_path):
    gated = threading.Event()
    real = pool_module._thread_chunk_worker

    def gated_worker(payloads, traceparents=None):
        gated.wait(60)
        return real(payloads, traceparents)

    pool_module._thread_chunk_worker = gated_worker
    try:
        with _Server(
            _config(tmp_path, shards=1, queue_limit=1, retry_after_s=0.05)
        ) as client:
            first = client.submit({**SPEC, "seed": 500})
            import time

            time.sleep(0.1)  # dispatcher picks it up; queue frees one slot
            second = client.submit({**SPEC, "seed": 501})
            status, payload, headers = client._request(
                "POST", "/v1/jobs", {**SPEC, "seed": 502}
            )
            assert status == 429
            assert headers["Retry-After"] == "0.05"
            assert payload["retry_after_s"] == 0.05

            gated.set()
            # submit_with_backoff rides the Retry-After hint to admission.
            third = client.submit_with_backoff({**SPEC, "seed": 502})
            for response in (first, second, third):
                client.wait(response["job_id"])
    finally:
        gated.set()
        pool_module._thread_chunk_worker = real


def test_metrics_endpoint_text_and_json(tmp_path):
    from repro.obs.prometheus import OPENMETRICS_CONTENT_TYPE, parse_exposition

    with _Server(_config(tmp_path)) as client:
        client.wait(client.submit(SPEC)["job_id"])
        snapshot = client.metrics()
        assert snapshot["service.completed"]["series"][0]["value"] == 1
        assert "harness.executed" in snapshot
        # Default scrape is OpenMetrics with the matching Content-Type,
        # and it parses cleanly (histograms cumulative, # EOF present).
        body, content_type = client.metrics_text()
        assert content_type == OPENMETRICS_CONTENT_TYPE
        families = parse_exposition(body)
        assert "service_completed" in families
        # Cache gauges/counters are exposed even before any miss/evict.
        for name in (
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_entries",
            "cache_bytes",
        ):
            assert name in families, name
        # The legacy dump stays reachable, correctly typed as plain text.
        _, legacy_type = client.metrics_text(fmt="text")
        assert legacy_type.startswith("text/plain")
        # And the JSON variant is typed as JSON.
        _, _, headers = client._request("GET", "/metrics?format=json")
        assert headers["Content-Type"] == "application/json"


def test_admin_shutdown_drains(tmp_path):
    server = _Server(_config(tmp_path))
    with server as client:
        client.wait(client.submit(SPEC)["job_id"])
        client.shutdown()
    server.thread.join(timeout=60)
    assert not server.thread.is_alive()
    assert server.summary == {"drained": 1, "cancelled": 0}
    # Draining rejects new connections outright: the socket is closed.
    with pytest.raises(OSError):
        ServiceClient(server.host, server.port, timeout=5).health()


def test_batch_results_query(tmp_path):
    """``GET /v1/jobs?fp=a&fp=b&...``: one round trip for many jobs —
    terminal jobs carry their serialized result inline, unknown
    fingerprints come back as such, and the query is capped."""
    with _Server(_config(tmp_path)) as client:
        first = client.submit(SPEC)["job_id"]
        second = client.submit({**SPEC, "seed": 99})["job_id"]
        for job_id in (first, second):
            client.wait(job_id)

        unknown = "0" * 64
        payload = client.results_batch([first, second, unknown, first])
        assert payload["requested"] == 3  # the duplicate collapses
        assert payload["done"] == 2
        jobs = payload["jobs"]
        assert jobs[first]["status"] == "done"
        assert jobs[second]["status"] == "done"
        assert jobs[first]["result"]["workloads"] == ["comm2"]
        assert jobs[first]["result"]["execution_cycles"] > 0
        assert jobs[unknown] == {"status": "unknown"}

        # Distinct seeds really are distinct jobs with distinct results.
        assert first != second

        # Over the cap: a 400, not a truncated answer.
        with pytest.raises(ServiceError) as err:
            client.results_batch([f"{i:064d}" for i in range(257)])
        assert err.value.status == 400

        # The empty client call never touches the wire.
        assert client.results_batch([]) == {"jobs": {}, "requested": 0, "done": 0}

        # Without fp params the route still serves the counts view.
        counts = client._checked("GET", "/v1/jobs")
        assert counts["jobs"] == {"done": 2}
        assert "queue_depth" in counts
