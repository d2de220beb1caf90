"""End-to-end benchmark of the MCR-DRAM reproduction, at paper trace lengths.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--out FILE] [--pin-digests]

Four workloads (see README.md for why each exists): ``paper-sweep``,
``alloc-sweep``, ``verify-fuzz`` and ``service-mix``. Without
``--workload`` all four run, one after another.

A run is a handful of *passes*. Each pass runs in a fresh interpreter
(so nothing cached survives between passes) on inputs generated from its
own pass seed ``seed * 1000 + index``; ``--seconds`` sets how many passes
there are (one per 5 s, at least 3). End-to-end metrics are medians over
passes, latency percentiles are taken over every job of every pass (the
tail is printed but not gated). Times are host times scaled to a
reference host speed: each pass multiplies its host times by the speed
its :class:`e2e_workloads.SpeedProbe` sampled during the timed window,
except ``service-mix``'s makespan, which its schedule sets.
Simulated statistics are checked, not timed:
every pass recomputes a sample of its outputs on the scalar reference
engine, and a pass whose seed is pinned in ``digests.json`` must
reproduce the SHA-256 of every result it produced.

``--trace`` runs pairs of passes instead, one plain and one with
:mod:`e2e_trace` wrapping every layer's entry points, and reports
per-layer metrics plus the tracing overhead between the two.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is non-zero when any output was wrong or a
pass failed. Everything the run writes (service caches, verify
artifacts) goes to a temporary directory under ``.e2e-tmp/`` at the
repository root, so a run reads and writes only inside its checkout.
The directory is removed before exit; one left behind by a killed run
is removed by the next run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

from e2e_trace import layer_names  # noqa: E402

WORKLOADS = ("paper-sweep", "alloc-sweep", "verify-fuzz", "service-mix")

#: Seconds of measurement one pass stands for, and the fewest passes a
#: run makes (so a median has something to reject).
PASS_SECONDS = 5
MIN_PASSES = 3

#: Every pass of a workload must finish inside this many seconds from
#: the workload's start.
WORKLOAD_DEADLINE_S = 170.0

#: name -> unit, for the end-to-end metrics (medians over passes).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "sim_req_per_s": "1/s",
    "job_p50_ms": "ms",
}

#: Service per-layer percentiles: sample name -> ((metric suffix, q), ...).
SERVICE_PERCENTILES = {
    "service.hit_ms": (("p50", 0.50), ("p95", 0.95)),
    "service.miss_ms": (("p50", 0.50), ("p90", 0.90)),
    "service.gen_late_ms": (("p95", 0.95),),
    "service.queue_wait_ms": (("p50", 0.50),),
    "service.execute_ms": (("p50", 0.50),),
    "service.store_write_ms": (("p50", 0.50),),
    "service.cache_lookup_ms": (("p50", 0.50),),
}
SERVICE_COUNTERS = {
    "service.batch_chunks": "count",
    "service.batched_lanes": "count",
    "service.rejected": "count",
    "service.hit_ratio": "ratio",
}
MODEL = {
    "model.row_hit_ratio": "ratio",
    "model.sim_cycles": "cycles",
    "model.fig11_err_pp": "pp",
    "model.fig14_err_pp": "pp",
}


def per_layer_units() -> dict[str, str]:
    """name -> unit, for every per-layer metric a ``--trace`` run prints."""
    units: dict[str, str] = {}
    for layer in layer_names():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units["controller.reject_ratio"] = "ratio"
    for sample, cuts in SERVICE_PERCENTILES.items():
        for suffix, _ in cuts:
            units[f"{sample}.{suffix}"] = "ms"
    units.update(SERVICE_COUNTERS)
    units.update(MODEL)
    units["trace.overhead_pct"] = "%"
    units["trace.unattributed_share"] = "ratio"
    return units


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int) -> float:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples
    beyond it (p50 when there are fewer than 20 samples)."""
    for q in (0.99, 0.95, 0.90, 0.75):
        if count * (1.0 - q) >= 10:
            return q
    return 0.50


# ----------------------------------------------------------------------
# passes


def run_pass(workload: str, seed: int, trace: bool, workdir: Path, deadline: float) -> dict:
    """One pass in a fresh interpreter; its outcome dict, or an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    command = [
        sys.executable,
        str(HERE / "e2e_workloads.py"),
        workload,
        "--seed", str(seed),
        "--trace", "1" if trace else "0",
        "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    # Own session, so a timed-out pass can be stopped with the service
    # and workers it started.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crashed": f"pass seed {seed} timed out"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"pass seed {seed} exited {proc.returncode}"}
    outcome = json.loads(lines[-1])
    outcome["seed"] = seed
    return outcome


def run_workload(
    workload: str,
    seed: int,
    passes: int,
    trace: bool,
    workdir: Path,
    pinned: dict[str, str],
) -> dict:
    """All passes of one workload; returns a report with metrics.
    ``pinned`` maps pass seeds to the digests their results must have."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    plain, traced, errors = [], [], []
    attempted = failed = 0
    pairs = max(2, passes // 2)
    schedule = (
        [(i, flag) for i in range(pairs) for flag in (False, True)]
        if trace
        else [(i, False) for i in range(passes)]
    )
    for index, flag in schedule:
        outcome = run_pass(workload, pass_seed(seed, index), flag, workdir, deadline)
        if "crashed" in outcome:
            errors.append(outcome["crashed"])
            attempted += 1
            failed += 1
            continue
        attempted += outcome["attempted"]
        failed += outcome["failed"] + len(outcome["errors"])
        errors.extend(outcome["failures"] + outcome["errors"])
        expected = pinned.get(str(outcome["seed"]))
        if expected is not None and outcome["digest"] != expected:
            errors.append(f"pass seed {outcome['seed']}: digest {outcome['digest'][:16]} "
                          f"!= pinned {expected[:16]}")
            failed += outcome["attempted"]
        (traced if flag else plain).append(outcome)
    for untraced, with_trace in zip(plain, traced) if trace else ():
        if untraced["digest"] != with_trace["digest"]:
            errors.append(f"pass seed {untraced['seed']}: traced run changed the results")
            failed += with_trace["attempted"]
    metrics = (
        per_layer_metrics(plain, traced)
        if trace
        else end_to_end_metrics(plain)
    )
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0 and not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "passes": plain + traced,
    }


# ----------------------------------------------------------------------
# metrics


def scaled_wall_s(outcome: dict) -> float:
    """A pass's wall time at reference host speed; an open-loop pass's
    makespan is set by its schedule (``paced``), so it stays as measured."""
    return outcome["wall_s"] * (1.0 if outcome.get("paced") else outcome["speed"])


def end_to_end_metrics(outcomes: list[dict]) -> dict:
    """Medians over passes of each pass's times at reference host speed
    (host time times the pass's probed ``speed``)."""
    if not outcomes:
        return {}

    def median(key):
        return statistics.median(key(o) for o in outcomes)

    samples = [ms * o["speed"] for o in outcomes for ms in o["job_ms"]]
    values = {
        "setup_s": median(lambda o: o["setup_s"] * o["speed"]),
        "wall_s": median(scaled_wall_s),
        "peak_rss_mb": median(lambda o: o["peak_rss_mb"]),
        "sim_req_per_s": median(lambda o: o["sim_requests"] / scaled_wall_s(o)),
        "job_p50_ms": percentile(samples, 0.50),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    units = per_layer_units()
    if not traced:
        return {}
    n = len(traced)
    values: dict[str, float] = {}
    for layer in layer_names():
        for field in ("calls", "busy_s", "self_s"):
            values[f"{layer}.{field}"] = sum(o["layers"][layer][field] for o in traced) / n
    accepts = values["controller.can_accept.calls"]
    rejected = sum(o["layers"]["controller.can_accept"]["false_returns"] for o in traced) / n
    values["controller.reject_ratio"] = rejected / accepts if accepts else 0.0
    for sample, cuts in SERVICE_PERCENTILES.items():
        pooled = [ms for o in traced for ms in o.get("service", {}).get("samples", {}).get(sample, ())]
        for suffix, q in cuts:
            values[f"{sample}.{suffix}"] = percentile(pooled, q)
    for name in SERVICE_COUNTERS:
        values[name] = sum(o.get("service", {}).get("counters", {}).get(name, 0.0) for o in traced) / n
    for name in MODEL:
        values[name] = sum(o["model"].get(name, 0.0) for o in traced) / n
    overheads = [
        100.0 * (scaled_wall_s(t) / scaled_wall_s(p) - 1.0)
        for p, t in zip(plain, traced)
    ]
    values["trace.overhead_pct"] = statistics.median(overheads) if overheads else 0.0
    values["trace.unattributed_share"] = sum(
        o["unattributed_share"]
        if "unattributed_share" in o
        else (o["wall_s"] - o["window_top_busy_s"]) / o["wall_s"]
        for o in traced
    ) / n
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ----------------------------------------------------------------------
# digests


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())


def pin_digests(report: dict) -> None:
    """Record every plain pass's digest of ``report`` in digests.json."""
    table = load_digests()
    entries = table.setdefault(report["workload"], {})
    for outcome in report["passes"]:
        if not outcome["traced"]:
            entries[str(outcome["seed"])] = outcome["digest"]
    table[report["workload"]] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------


def remove_stale(scratch_root: Path) -> None:
    """Delete the work directories of runs that were killed before they
    could (each is named after the pid of its run)."""
    for entry in scratch_root.iterdir():
        pid = entry.name.partition("-")[0]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(entry, ignore_errors=True)
        except PermissionError:
            pass  # alive, owned by someone else


def print_report(report: dict) -> None:
    seeds = sorted({o["seed"] for o in report["passes"]})
    print(f"{report['workload']}: seed {report['seed']}, {len(report['passes'])} pass runs "
          f"(pass seeds {seeds[0] if seeds else '-'}..{seeds[-1] if seeds else '-'})")
    for name, metric in report["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    plain = [o for o in report["passes"] if not o["traced"]]
    samples = [ms * o["speed"] for o in plain for ms in o["job_ms"]]
    if samples:
        # Printed, not gated: on a shared 2-core host the tail moves more
        # between runs than any bound allows (see README, Calibration).
        q = tail_quantile(len(samples))
        print(f"  job latency p{100 * q:g}: {percentile(samples, q):.6g} ms "
              f"over {len(samples)} jobs")
        print("  as measured: setup_s {:.6g} s, wall_s {:.6g} s, host speed {:.4g}".format(
            *(statistics.median(o[key] for o in plain) for key in ("setup_s", "wall_s", "speed"))
        ))
    verdict = "ok" if report["correct"] else "WRONG"
    print(f"  outputs {verdict}: {report['attempted']} attempted, {report['failed']} failed")
    for error in report["errors"][:20]:
        print(f"  FAIL: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2015,
                        help="workload seed (default 2015; 7 is held out)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help=f"measurement budget: one pass per {PASS_SECONDS} s, "
                             f"at least {MIN_PASSES}")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from traced passes")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full report (passes, spans) as JSON")
    parser.add_argument("--pin-digests", action="store_true",
                        help="record this run's pass digests in digests.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"e2e: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    passes = max(MIN_PASSES, int(args.seconds // PASS_SECONDS))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    scratch_root = ROOT / ".e2e-tmp"
    scratch_root.mkdir(exist_ok=True)
    remove_stale(scratch_root)
    workdir = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=scratch_root))
    try:
        # Re-pinning ignores the old pins: they are what is being replaced.
        pins = {} if args.pin_digests else load_digests()
        reports = [
            run_workload(
                name, args.seed, passes, bool(args.trace), workdir, pins.get(name, {})
            )
            for name in workloads
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is using it

    for report in reports:
        print_report(report)
        if args.pin_digests and report["correct"] and not args.trace:
            pin_digests(report)
    if args.out is not None:
        args.out.write_text(json.dumps(reports, indent=1) + "\n")

    single = len(reports) == 1
    summary = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (name if single else f"{r['workload']}/{name}"): metric
            for r in reports
            for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
