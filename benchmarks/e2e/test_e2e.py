"""Tests of the end-to-end benchmark itself, at reduced sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import e2e_workloads as workloads  # noqa: E402
import run  # noqa: E402
from e2e_trace import LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


#: Each workload's sizes for a pass that runs in a second or two.
SMALL = {
    "paper-sweep": {"singles": ("comm2",), "n_single": 300, "n_multi": 100},
    "alloc-sweep": {"n_single": 300},
    "verify-fuzz": {"iterations": 1},
    "service-mix": {"rate": 20.0, "window_s": 0.6, "n_requests": 100},
}


def small(name: str, seed: int, workdir: Path):
    return workloads.WORKLOADS[name](seed, workdir, **SMALL[name])


def one_pass(name: str, seed: int, workdir: Path, trace: bool) -> dict:
    outcome = workloads.run_pass(small(name, seed, workdir), trace, time.monotonic())
    outcome["seed"] = seed
    return outcome


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(name, tmp_path):
    plain = one_pass(name, 3, tmp_path, trace=False)
    traced = one_pass(name, 3, tmp_path, trace=True)
    assert plain["errors"] == [] and traced["errors"] == []
    assert plain["digest"] == traced["digest"]

    end_to_end = run.end_to_end_metrics([plain])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        n: m["unit"] for n, m in end_to_end.items()
    }
    assert all(m["value"] > 0 for m in end_to_end.values())
    per_layer = run.per_layer_metrics([plain], [traced])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        n: m["unit"] for n, m in per_layer.items()
    }


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_corrupted_result_fails_the_run(monkeypatch, tmp_path, capsys):
    from repro.batch.kernel import BatchKernel

    clean = one_pass("paper-sweep", 5, tmp_path, trace=False)
    original_run = BatchKernel.run

    def corrupted(self):
        return [
            dataclasses.replace(result, execution_cycles=result.execution_cycles + 1)
            for result in original_run(self)
        ]

    def in_process(workload, seed, trace, workdir, deadline):
        return one_pass(workload, seed, tmp_path, trace)

    monkeypatch.setattr(BatchKernel, "run", corrupted)
    monkeypatch.setattr(run, "run_pass", in_process)
    monkeypatch.setattr(
        run, "load_digests", lambda: {"paper-sweep": {str(run.pass_seed(5, 0)): clean["digest"]}}
    )
    code = run.main(["--workload", "paper-sweep", "--seed", "5", "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert code != 0
    assert summary["correct"] is False
    assert 0 < summary["failed"] / summary["attempted"]
    report = "\n".join(lines)
    assert "differs from the scalar engine" in report
    assert "!= pinned" in report


def test_service_hits_are_read_from_the_disk_cache(tmp_path):
    work = small("service-mix", 4, tmp_path)
    outcome = workloads.run_pass(work, False, time.monotonic())
    assert outcome["failures"] == [] and outcome["errors"] == []
    hits = sum(is_hit for _, is_hit, _ in work.schedule)
    assert hits and len(work.expected) == hits
    # One cache.lookup span per hit, fetched from the hit's own result;
    # job latency covers the misses only.
    assert len(outcome["service"]["samples"]["service.cache_lookup_ms"]) == hits
    assert len(outcome["job_ms"]) == len(work.schedule) - hits
    assert set(work.expected) <= set(work.served)
    # The load schedule sets the makespan, so it is not scaled.
    assert run.end_to_end_metrics([outcome])["wall_s"]["value"] == outcome["wall_s"]


def test_a_wrong_cache_read_fails_the_pass(tmp_path):
    work = small("service-mix", 4, tmp_path)
    setup = work.setup

    def setup_then_tamper():
        setup()
        path = next(Path(work.cache_dir).rglob("*.json"))
        entry = json.loads(path.read_text())
        entry["result"]["execution_cycles"] += 1
        path.write_text(json.dumps(entry))

    work.setup = setup_then_tamper
    outcome = workloads.run_pass(work, False, time.monotonic())
    assert any("differs from the result set-up wrote" in e for e in outcome["errors"])


@pytest.mark.parametrize("name", ["paper-sweep", "alloc-sweep", "verify-fuzz"])
def test_traced_self_times_and_unattributed_time_sum_to_wall_time(name, tmp_path):
    outcome = one_pass(name, 11, tmp_path, trace=True)
    wall = outcome["wall_s"]
    # Unattributed time is measured from the outermost wrapped calls, the
    # self times from every wrapped call: they must tile the pass.
    unattributed = wall - outcome["window_top_busy_s"]
    assert unattributed >= 0
    assert abs(outcome["window_self_s"] + unattributed - wall) <= 0.01 * wall


def test_every_wrapped_attribute_is_restored(tmp_path):
    tracer = LayerTracer().install()
    try:
        patches = tracer.patched()
        assert {owner for owner, _, _ in patches}  # something was wrapped
        work = small("alloc-sweep", 2, tmp_path)
        work.setup()
        work.run()
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} still wrapped"
    assert tracer.patched() == []
    assert tracer.stats["sim.run"].calls > 0


def test_speed_probe_samples_the_pass_and_stops(tmp_path):
    outcome = one_pass("alloc-sweep", 2, tmp_path, trace=False)
    assert outcome["speed"] > 0 and outcome["speed"] != 1.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    # Host times are reported at reference speed.
    metrics = run.end_to_end_metrics([outcome])
    assert metrics["wall_s"]["value"] == pytest.approx(outcome["wall_s"] * outcome["speed"])


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = SPEC["command"] + [
        "--workload", "paper-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"
    ]
    proc = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
