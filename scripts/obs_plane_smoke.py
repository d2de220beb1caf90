"""CI smoke test for the telemetry plane (90-second budget).

Proves the acceptance criterion end to end, the way a tenant would see
it: one metrics job submitted over HTTP must yield

1. an ``X-Trace-Id`` / ``Traceparent`` header pair on the submit
   response;
2. an NDJSON lifecycle stream whose every event carries that same trace
   id, with monotonically ordered ``queued <= started <= finished``
   events — observed by two independent followers of the same
   fingerprint (a second, coalesced submission);
3. a stored RunResult whose ``trace`` annotation carries the same id
   and an ``execute`` span, plus its metrics snapshot (the job ran with
   ``metrics: true``);
4. a ``/metrics`` scrape in OpenMetrics format that parse-validates,
   advertises the right Content-Type, and includes the cache gauges and
   a trace-id exemplar on the job-seconds histogram.

Exits non-zero on any violated expectation. Run from the repo root::

    PYTHONPATH=src python scripts/obs_plane_smoke.py
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, "src")

from repro.obs.prometheus import (  # noqa: E402
    OPENMETRICS_CONTENT_TYPE,
    parse_exposition,
)
from repro.service.client import ServiceClient  # noqa: E402

BUDGET_S = 90
SPEC = {
    "workload": "comm2",
    "n_requests": 150,
    "seed": 7,
    "mode": "4/4x/100%reg",
    "metrics": True,
}
_TRACE_ID = re.compile(r"^[0-9a-f]{32}$")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_health(client: ServiceClient, deadline: float) -> dict:
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            return client.health()
        except OSError as exc:
            last = exc
            time.sleep(0.1)
    raise SystemExit(f"service never became healthy: {last}")


def check_lifecycle(events: list[dict], trace_id: str, who: str) -> None:
    """One follower's view: ordered lifecycle, every event correlated."""
    kinds = [event["event"] for event in events]
    assert kinds[0] == "queued", (who, kinds)
    assert kinds[-1] == "finished", (who, kinds)
    assert kinds.index("queued") <= kinds.index("started") <= kinds.index(
        "finished"
    ), (who, kinds)
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs), (who, seqs)
    timestamps = [event["ts"] for event in events]
    assert timestamps == sorted(timestamps), (who, timestamps)
    for event in events:
        assert event.get("trace_id") == trace_id, (who, event)
        assert event.get("span_id"), (who, event)


def main() -> int:
    started = time.monotonic()
    deadline = started + BUDGET_S
    port = free_port()
    cache_dir = tempfile.mkdtemp(prefix="obs-plane-smoke-")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--port",
            str(port),
            "--backend",
            "thread",
            "--shards",
            "2",
            "--cache-dir",
            cache_dir,
        ],
        env={**os.environ, "PYTHONPATH": "src"},
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        client = ServiceClient("127.0.0.1", port, timeout=30)
        wait_for_health(client, deadline)

        # 1. Submit returns the trace context in HTTP headers.
        response, headers = client.submit_with_headers(SPEC)
        job_id = response["job_id"]
        trace_id = headers.get("X-Trace-Id", "")
        assert _TRACE_ID.match(trace_id), headers
        assert headers.get("Traceparent", "").startswith(f"00-{trace_id}-"), headers
        assert response.get("trace_id") == trace_id, response
        print(f"submitted {job_id[:12]} trace_id={trace_id}")

        # 2. Two followers of the same fingerprint (the second submission
        # coalesces onto it) observe the same ordered, correlated stream.
        first_view = list(client.events(job_id))
        coalesced = client.submit(SPEC)
        assert coalesced["job_id"] == job_id, coalesced
        second_view = list(client.events(job_id))
        check_lifecycle(first_view, trace_id, "first follower")
        check_lifecycle(second_view, trace_id, "second follower")
        assert [e["seq"] for e in first_view] == [e["seq"] for e in second_view]
        print(f"both followers saw {len(first_view)} ordered correlated events")

        # 3. The stored RunResult carries the trace and its metrics.
        result = client.result(job_id)["result"]
        trace = result["trace"]
        assert trace is not None and trace["trace_id"] == trace_id, trace
        span_names = [span["name"] for span in trace["spans"]]
        assert "execute" in span_names, span_names
        assert result["metrics"], "metrics job carried no metrics snapshot"
        assert any(name == "sim.commands" for name in result["metrics"]), list(
            result["metrics"]
        )
        print(f"stored result correlated; spans: {sorted(set(span_names))}")

        # 4. The Prometheus scrape validates and carries the exemplar.
        body, content_type = client.metrics_text()
        assert content_type == OPENMETRICS_CONTENT_TYPE, content_type
        families = parse_exposition(body)
        for family in ("service_completed", "service_job_seconds", "cache_entries"):
            assert family in families, sorted(families)
        exemplars = [
            sample.exemplar
            for sample in families["service_job_seconds"].samples
            if sample.exemplar is not None
        ]
        assert exemplars, "job_seconds carried no exemplar"
        assert exemplars[0]["labels"].get("trace_id") == trace_id, exemplars
        print(f"/metrics: {len(families)} families, exemplar trace id matches")

        server.send_signal(signal.SIGINT)
        _, stderr = server.communicate(timeout=max(5, deadline - time.monotonic()))
        assert server.returncode == 0, f"exit {server.returncode}:\n{stderr}"

        elapsed = time.monotonic() - started
        assert elapsed < BUDGET_S, f"smoke overran its budget: {elapsed:.1f}s"
        print(f"obs plane smoke OK in {elapsed:.1f}s")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
