"""CLI service commands: serve lifecycle, submit round-trip, cache admin."""

import json
import signal
import socket
import threading
import time

import pytest

from repro.experiments.cli import main
from repro.service.client import ServiceClient


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def served(tmp_path):
    """`mcr-dram serve` on a background thread; yields (host, port)."""
    port = _free_port()
    done = threading.Event()
    exit_code = {}

    def run():
        exit_code["code"] = main(
            [
                "serve",
                "--port",
                str(port),
                "--backend",
                "thread",
                "--shards",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    client = ServiceClient("127.0.0.1", port, timeout=30)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            client.health()
            break
        except OSError:
            assert not done.is_set(), "serve exited before becoming healthy"
            time.sleep(0.05)
    else:
        pytest.fail("serve never became healthy")
    yield "127.0.0.1", port
    try:
        client.shutdown()
    except Exception:
        pass
    assert done.wait(60), "serve never drained"
    assert exit_code["code"] == 0


def test_submit_round_trip_and_summary_line(served, capsys):
    host, port = served
    argv = [
        "submit",
        "comm2",
        "--requests",
        "80",
        "--seed",
        "3",
        "--port",
        str(port),
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "comm2 mode=" in captured.out
    assert "cycles" in captured.out
    assert "queued" in captured.err  # event stream echoed to stderr

    # Second submission: served from the registry/cache, full JSON out.
    assert main(argv + ["--json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["result"]["execution_cycles"] > 0
    assert "done" in captured.err


def test_submit_mcr_mode_with_allocation(served, capsys):
    host, port = served
    assert (
        main(
            [
                "submit",
                "comm2",
                "--mode",
                "4/4x/100%reg",
                "--requests",
                "80",
                "--allocation",
                "collision-free",
                "--port",
                str(port),
            ]
        )
        == 0
    )
    assert "4/4x" in capsys.readouterr().out


def test_submit_bad_spec_is_a_clean_failure(served, capsys):
    host, port = served
    assert main(["submit", "no-such-workload", "--port", str(port)]) == 1
    assert "unknown workload" in capsys.readouterr().err


def test_submit_unreachable_service(capsys):
    port = _free_port()  # nothing listening
    assert main(["submit", "comm2", "--port", str(port), "--timeout", "2"]) == 1
    assert "cannot reach service" in capsys.readouterr().err


def test_cache_stats_and_evict(served, tmp_path, capsys):
    host, port = served
    assert main(["submit", "comm2", "--requests", "80", "--port", str(port)]) == 0
    capsys.readouterr()
    cache_dir = str(tmp_path / "cache")
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1
    # Bare `mcr-dram cache` defaults to stats.
    assert main(["cache", "--cache-dir", cache_dir]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 1
    assert main(["cache", "evict", "--max-mb", "1", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "evicted 0 entries" in out and "1 remain" in out


def test_run_exits_130_on_interrupt(tmp_path, monkeypatch, capsys):
    """`mcr-dram run` surfaces a graceful shutdown as exit 130 with the
    partial-sweep summary, instead of a traceback."""
    import repro.batch as batch_module

    original = batch_module.run_batch
    calls = {"n": 0}

    def run_batch_and_interrupt(instances):
        calls["n"] += 1
        if calls["n"] == 1:
            import os

            os.kill(os.getpid(), signal.SIGINT)
        return original(instances)

    monkeypatch.setattr(batch_module, "run_batch", run_batch_and_interrupt)
    # The interrupt lands in fig13's first unit, its kernel chunk; the
    # allocation jobs planned after it are cancelled.
    code = main(
        [
            "run",
            "fig13",
            "--scale",
            "smoke",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
    )
    assert code == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "cancelled by shutdown" in err
