"""The end-to-end benchmark's four workloads, one pass at a time.

A *pass* runs one workload once, cache-cold, on inputs generated from a
pass seed. Each workload class splits a pass in three:

- ``setup()`` builds the inputs, and the service a pass talks to; the
  benchmark reports it as set-up time;
- ``run()`` is the timed work and returns an outcome dict, with the
  operations the program itself reported as failed;
- ``check()`` compares a sample of the outputs with a reference (the
  scalar engine, or what set-up wrote to a cache) and returns one
  message per mismatch.

While ``run()`` works, a :class:`SpeedProbe` samples how fast the host
is running interpreted code at that moment; the pass reports the result
as ``speed`` next to its host times.

Every workload is built as ``cls(seed, workdir, **sizes)``: ``workdir``
is the run's scratch directory, and sizes are keyword arguments, so
tests can run a small pass in process. ``run.py`` runs every pass in a
fresh interpreter through :func:`main`, so that no construction cache
survives from one pass to the next: a user pays construction on every
run of a sweep.

Run one pass by hand (``src`` must be importable)::

    PYTHONPATH=src python benchmarks/e2e/e2e_workloads.py paper-sweep --seed 2015000
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2e_trace import LayerTracer  # noqa: E402

#: Paper-reported average execution-time reduction of [4/4x] at MCR
#: ratio 1.0 (Figs. 11 and 14), in percent.
PAPER_EXEC_REDUCTION = {"fig11": 7.9, "fig14": 10.3}


def digest(payload) -> str:
    """SHA-256 of a canonical JSON encoding."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def model_counters(results) -> dict[str, float]:
    """Exact simulated statistics over a pass's serialized results."""
    row_hits = columns = cycles = 0
    for result in results:
        cycles += result["execution_cycles"]
        for stats in result["controller_stats"]:
            row_hits += stats["row_hits"]
            columns += stats["reads"] + stats["writes"]
    return {
        "model.row_hit_ratio": row_hits / columns if columns else 0.0,
        "model.sim_cycles": float(cycles),
    }


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Temporarily replace ``owner.attr`` with ``make_wrapper(original)``."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# host speed

#: Seconds between two samples of the speed probe.
PROBE_INTERVAL_S = 0.02

#: Mean duration of one probe loop on a quiet vCPU of the reference host
#: (an Intel Xeon at 2.1 GHz running CPython 3.11).
PROBE_REFERENCE_S = 50e-6


def _probe_loop() -> None:
    total = 0
    table = {}
    for i in range(400):
        total += i * i % 7
        table[i & 63] = total


class SpeedProbe:
    """How fast the host runs interpreted code, sampled all through a
    pass's timed window.

    On a shared host the CPU throughput a process gets moves by a third
    over minutes, so the same pass takes 5.6 s in one minute and 6.8 s in
    the next. Every ``interval_s`` a ``SIGALRM`` handler times a fixed
    pure-Python loop of about 50 us, ``burst`` times in a row (by default
    once every ``PROBE_INTERVAL_S``, 0.25 % of the pass). The mean loop
    time over a pass tracks the pass's host time closely (correlation
    0.99 over fourteen repeats of one paper-sweep pass), so a host time
    multiplied by :meth:`speed` is the time the pass would have taken on
    the reference host, and repeats far more closely than the host time.
    """

    def __init__(self, interval_s: float = PROBE_INTERVAL_S, burst: int = 1) -> None:
        self.interval_s = interval_s
        self.burst = burst
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        times = []
        for _ in range(self.burst):
            start = perf_counter()
            _probe_loop()
            times.append(perf_counter() - start)
        # The first loops of a burst rewarm what an idle wait left cold.
        self.samples.append(statistics.median(times[self.burst // 4:]))

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """``PROBE_REFERENCE_S`` over the mean sampled loop time: 1.0 on
        the reference host, 0.8 on one 25 % slower. A sample ten times the
        median was preempted mid-loop and is left out."""
        if not self.samples:
            return 1.0
        cap = 10.0 * statistics.median(self.samples)
        return PROBE_REFERENCE_S / statistics.fmean(s for s in self.samples if s <= cap)


# ----------------------------------------------------------------------
# sweeps


#: Quad-core mixes a sweep plans (fig14 only).
MIXES = 1


class _Sweep:
    """One planned figure sweep through ``execute_jobs`` with the CLI's
    serial, cache-less harness configuration. A sweep writes nothing, so
    it ignores ``workdir``."""

    experiments: tuple[str, ...] = ()
    #: Makes the probe that samples ``run()``.
    speed_probe = SpeedProbe

    def __init__(
        self,
        seed: int,
        workdir: Path,
        singles: tuple[str, ...],
        n_single: int = 4000,
        n_multi: int = 2000,
    ) -> None:
        from repro.experiments.scale import ScaleConfig

        self.seed = seed
        self.scale = ScaleConfig("e2e", n_single, n_multi, tuple(singles), MIXES, seed=seed)
        self.jobs: list = []
        self.results: dict = {}

    def setup(self) -> None:
        from repro.harness import planner

        self.jobs = planner.plan(list(self.experiments), self.scale)

    def run(self) -> dict:
        from repro.harness import executor
        from repro.harness.store import serialize_result
        from repro.harness.telemetry import Telemetry

        telemetry = Telemetry()
        start = perf_counter()
        self.results = executor.execute_jobs(
            self.jobs,
            executor.HarnessConfig(parallel=1, cache_dir=None),
            memo={},
            telemetry=telemetry,
        )
        wall = perf_counter() - start
        rss = peak_rss_mb()
        serialized = {fp: serialize_result(r) for fp, r in self.results.items()}
        return {
            "wall_s": wall,
            "peak_rss_mb": rss,
            "sim_requests": sum(r["reads"] + r["writes"] for r in serialized.values()),
            "job_ms": [record.seconds * 1e3 for record in telemetry.records],
            "attempted": len(self.jobs),
            "failed": len(self.jobs) - len(serialized),
            "failures": [],
            "digest": digest(sorted(serialized.items())),
            "model": model_counters(serialized.values()),
        }

    def check(self) -> list[str]:
        """Re-run one kernel job on the scalar engine, bit for bit."""
        from repro.batch import job_incompatibility
        from repro.harness.store import serialize_result

        kernel_jobs = [
            job
            for job in self.jobs
            if job_incompatibility(job) is None and len(job.provenances) == 1
        ]
        job = random.Random(self.seed).choice(kernel_jobs)
        # Planned jobs carry batch=False, so execute() is the scalar engine.
        reference = serialize_result(job.execute())
        if serialize_result(self.results[job.fingerprint]) != reference:
            return [f"{job.label}: kernel result differs from the scalar engine"]
        return []

    def close(self) -> None:
        pass


class PaperSweep(_Sweep):
    """Figs. 11 and 14 (MCR-ratio sweeps): every job runs in the kernel."""

    experiments = ("fig11", "fig14")

    def __init__(self, seed: int, workdir: Path, singles=("comm2", "tigr"), **sizes) -> None:
        super().__init__(seed, workdir, singles, **sizes)

    def run(self) -> dict:
        outcome = super().run()
        outcome["model"].update(self._paper_error())
        return outcome

    def _paper_error(self) -> dict[str, float]:
        """|average [4/4x]@1.0 exec-time reduction - paper|, per figure."""
        baselines, targets = {}, {}
        for job in self.jobs:
            result = self.results[job.fingerprint]
            if not job.mode.enabled:
                baselines[job.provenances] = result
            elif job.mode.k == 4 and job.mode.region_fraction == 1.0:
                targets[job.provenances] = result
        errors = {}
        for figure, cores in (("fig11", 1), ("fig14", 4)):
            reductions = [
                100.0
                * (baselines[key].execution_cycles - result.execution_cycles)
                / baselines[key].execution_cycles
                for key, result in targets.items()
                if len(key) == cores
            ]
            mean = sum(reductions) / len(reductions)
            errors[f"model.{figure}_err_pp"] = abs(mean - PAPER_EXEC_REDUCTION[figure])
        return errors


class AllocSweep(_Sweep):
    """Fig. 13 (refresh modes with profile allocation): page allocation
    sends all but the baselines to the scalar engine."""

    experiments = ("fig13",)

    def __init__(self, seed: int, workdir: Path, **sizes) -> None:
        super().__init__(seed, workdir, ("comm2",), **sizes)


# ----------------------------------------------------------------------
# differential verification


_FUZZ_SUMMARY = re.compile(r"= (\d+) cases, (\d+) failures")


class VerifyFuzz:
    """``python -m repro.verify`` with a fixed iteration count, so a seed
    names exactly the cases that run."""

    speed_probe = SpeedProbe

    def __init__(self, seed: int, workdir: Path, iterations: int = 16) -> None:
        self.seed = seed
        self.iterations = iterations
        self.workdir = Path(workdir)

    def setup(self) -> None:
        # Nothing to generate: the fuzz loop samples its own cases from
        # the seed. Set-up is the import of the verification plane.
        import repro.verify.batched  # noqa: F401
        import repro.verify.cli  # noqa: F401

    def run(self) -> dict:
        from repro.batch.kernel import BatchKernel
        from repro.harness.store import serialize_result
        from repro.sim.engine import SystemSimulator
        from repro.verify import batched, cli

        results: list = []
        iteration_ms: list[float] = []
        round_ms: list[float] = []

        def keep_result(run):
            def wrapper(*args, **kwargs):
                result = run(*args, **kwargs)
                results.append(result)
                return result

            return wrapper

        def keep_results(run):
            def wrapper(*args, **kwargs):
                outputs = run(*args, **kwargs)
                results.extend(outputs)
                return outputs

            return wrapper

        def timed(fn, into: list[float]):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                out = fn(*args, **kwargs)
                into.append((perf_counter() - start) * 1e3)
                return out

            return wrapper

        argv = [
            "--seed", str(self.seed),
            "--max-iterations", str(self.iterations),
            "--identities", "1",
            # The iteration cap, not the clock, ends the fuzz phase.
            "--seconds", "3600",
            "--artifact-dir", str(self.workdir / f"verify-failures-{self.seed}"),
        ]
        stdout = io.StringIO()
        with patched(SystemSimulator, "run", keep_result), patched(
            BatchKernel, "run", keep_results
        ), patched(
            cli, "run_fuzz_iteration", lambda fn: timed(fn, iteration_ms)
        ), patched(
            batched, "run_batched_round", lambda fn: timed(fn, round_ms)
        ), contextlib.redirect_stdout(stdout):
            start = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - start
        rss = peak_rss_mb()
        serialized = [serialize_result(r) for r in results]
        summary = stdout.getvalue()
        match = _FUZZ_SUMMARY.search(summary)
        cases, failed = (int(match[1]), int(match[2])) if match else (0, 1)
        failures = []
        if code != 0:
            failed = max(failed, 1)
            failures.append(f"verify exited {code}: {summary.strip()!r}")
        return {
            "wall_s": wall,
            "peak_rss_mb": rss,
            "sim_requests": sum(r["reads"] + r["writes"] for r in serialized),
            # One job per fuzz-loop step: an oracle case plus a kernel
            # round (whose lanes share one wall time, so they are not
            # separate samples).
            "job_ms": [a + b for a, b in zip(iteration_ms, round_ms)],
            "attempted": max(cases, 1),
            "failed": failed,
            "failures": failures,
            "digest": digest([summary, serialized]),
            "model": model_counters(serialized),
        }

    def check(self) -> list[str]:
        # The fuzz loop is its own reference check: every oracle case is
        # replayed against the rule tables and one lane per kernel round
        # is re-run on the scalar engine; run() reports what it found.
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# simulation service


_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

#: Modes the specs draw from (all batch-compatible, so queued misses can
#: coalesce into kernel chunks).
_MODES = ("off", "4/4x/100%reg", "2/2x/50%reg", "2/4x/25%reg")

#: Every MISS_EVERY-th request is a cold miss; the others are cache hits.
MISS_EVERY = 3

#: Seconds between two ``results_batch`` polls for outstanding misses.
POLL_S = 0.01

#: Trace length of the hot specs. A cache read costs the same whatever
#: the spec's length, and short specs keep set-up's in-process run short.
HOT_REQUESTS = 200


class ServiceMix:
    """A ``serve`` subprocess (process backend, 2 shards, a fresh cache
    directory under ``workdir``) under an open-loop mix of cache hits and
    cold misses.

    Set-up computes the *hot* specs in process and writes their results
    to the cache directory, as an earlier sweep sharing the cache would,
    then starts the service on that directory. One thread submits on a
    fixed schedule (``rate`` per second for ``window_s``): every
    ``MISS_EVERY``-th request is a unique, never-seen spec, which
    executes and writes the cache; every other request is a hot spec
    the service has not seen yet, so it reads it from the disk cache. A
    second thread polls ``results_batch`` for outstanding misses.
    Latency runs from each request's scheduled send time, so a stalled
    submit also delays every request behind it.
    """

    @staticmethod
    def speed_probe() -> SpeedProbe:
        """The misses run in the service's worker processes while this
        client mostly waits, and single loops timed as it wakes up do not
        follow their latency. Bursts of eight loops, the first two left
        out, do (correlation 0.70 over 24 repeats of one pass)."""
        return SpeedProbe(interval_s=0.1, burst=8)

    def __init__(
        self,
        seed: int,
        workdir: Path,
        rate: float = 16.0,
        window_s: float = 3.0,
        n_requests: int = 1000,
    ) -> None:
        from repro.workloads.suites import SINGLE_CORE_WORKLOADS

        self.seed = seed
        self.window_s = window_s
        self.workdir = Path(workdir)
        rng = random.Random(seed)
        # Misses take every workload in turn, each with a fixed mode, in
        # a seeded order: a full pass executes the same mix whatever the
        # seed, so its miss median does not hinge on what a seed draws.
        order = rng.sample(range(len(SINGLE_CORE_WORKLOADS)), len(SINGLE_CORE_WORKLOADS))
        #: (send offset in s, is a hit, spec); every spec is distinct.
        self.schedule = []
        for index in range(int(rate * window_s)):
            if index % MISS_EVERY:
                workload, mode = rng.choice(SINGLE_CORE_WORKLOADS), rng.choice(_MODES)
                spec = self._spec(workload, mode, index, HOT_REQUESTS)
                self.schedule.append((index / rate, True, spec))
            else:
                k = order[index // MISS_EVERY % len(order)]
                workload, mode = SINGLE_CORE_WORKLOADS[k], _MODES[k % len(_MODES)]
                spec = self._spec(workload, mode, index, n_requests)
                self.schedule.append((index / rate, False, spec))
        self.server: subprocess.Popen | None = None
        self.cache_dir: str | None = None
        self.client = None
        #: fingerprint -> result set-up wrote to the cache.
        self.expected: dict[str, dict] = {}
        #: fingerprint -> result the service returned, for every request.
        self.served: dict[str, dict] = {}
        #: fingerprint -> spec, for every miss that finished.
        self.misses: dict[str, dict] = {}

    def _spec(self, workload: str, mode: str, salt: int, n_requests: int) -> dict:
        return {
            "workload": workload,
            "n_requests": n_requests,
            "seed": self.seed * 1_000_000 + salt,
            "mode": mode,
        }

    def setup(self) -> None:
        import repro
        from repro.harness import executor
        from repro.harness.store import ResultStore, serialize_result
        from repro.service.client import ServiceClient
        from repro.service.spec import parse_spec

        # A fresh cache per pass: a second pass on the same seed must
        # start cold too.
        self.cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=self.workdir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")) if p
        )
        # Started before this process grows, so that the service's peak
        # RSS is its own; it reads the cache only once requests arrive.
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.cli", "serve",
                "--port", "0",
                "--shards", "2",
                "--backend", "process",
                "--cache-dir", self.cache_dir,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        hot = [parse_spec(spec).to_job() for _, is_hit, spec in self.schedule if is_hit]
        written = executor.execute_jobs(
            hot,
            executor.HarnessConfig(parallel=1, cache_dir=None),
            memo={},
            store=ResultStore(self.cache_dir),
        )
        self.expected = {
            fp: json.loads(json.dumps(serialize_result(result)))
            for fp, result in written.items()
        }
        line = self.server.stderr.readline()
        match = _LISTENING.search(line)
        if match is None:
            raise RuntimeError(f"service did not start: {line!r}")
        # Keep draining stderr so the server never blocks on a full pipe.
        threading.Thread(target=self.server.stderr.read, daemon=True).start()
        self.client = ServiceClient(match[1], int(match[2]), timeout=60)

    def run(self) -> dict:
        from repro.service.client import ServiceError

        client = self.client
        lock = threading.Lock()
        outstanding: dict[str, tuple[float, dict]] = {}
        hits: list[str] = []
        hit_ms: list[float] = []
        miss_ms: list[float] = []
        late_ms: list[float] = []
        failures: list[str] = []
        finished = threading.Event()
        last_done = [0.0]
        start = perf_counter() + 0.05

        def submitter() -> None:
            try:
                for offset, is_hit, spec in self.schedule:
                    due = start + offset
                    pause = due - perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    late_ms.append((perf_counter() - due) * 1e3)
                    try:
                        response = client.submit(spec)
                    except (ServiceError, OSError) as exc:
                        failures.append(f"submit failed: {exc}")
                        continue
                    now = perf_counter()
                    fp = response["job_id"]
                    served_from = response["cached"] if response["status"] == "done" else None
                    if served_from != ("disk" if is_hit else None):
                        failures.append(f"{fp[:12]}: {'hit' if is_hit else 'miss'} answered "
                                        f"{response['status']} from {served_from}")
                    elif is_hit:
                        hit_ms.append((now - due) * 1e3)
                        last_done[0] = max(last_done[0], now)
                        hits.append(fp)
                    else:
                        with lock:
                            outstanding[fp] = (due, spec)
            finally:
                finished.set()

        def poller() -> None:
            give_up = start + self.window_s + 60.0
            while perf_counter() < give_up:
                # Read the flag first: once it is set, every miss is
                # already in ``outstanding``.
                submitted_all = finished.is_set()
                with lock:
                    waiting = dict(outstanding)
                if not waiting:
                    if submitted_all:
                        return
                    time.sleep(POLL_S)
                    continue
                try:
                    jobs = client.results_batch(waiting)["jobs"]
                except (ServiceError, OSError) as exc:
                    failures.append(f"poll failed: {exc}")
                    return
                now = perf_counter()
                for fp, entry in jobs.items():
                    if entry["status"] in ("queued", "running"):
                        continue
                    due, spec = waiting[fp]
                    with lock:
                        del outstanding[fp]
                    if entry["status"] != "done":
                        failures.append(f"miss {fp[:12]} {entry['status']}")
                        continue
                    miss_ms.append((now - due) * 1e3)
                    last_done[0] = max(last_done[0], now)
                    self.served[fp] = entry["result"]
                    self.misses[fp] = spec
                time.sleep(POLL_S)

        threads = [threading.Thread(target=submitter), threading.Thread(target=poller)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        makespan = last_done[0] - start
        failures.extend(f"miss {fp[:12]} never finished" for fp in outstanding)
        # Fetch the hits' results after the timed window: they are hashed
        # and checked, and their span trees time the cache read.
        for fp, entry in (client.results_batch(hits)["jobs"] if hits else {}).items():
            self.served[fp] = entry["result"]
        metrics = client.metrics()
        self.close()
        miss_spans = [self.served[fp]["trace"]["spans"] for fp in self.misses]
        hit_spans = [self.served[fp]["trace"]["spans"] for fp in hits]
        return {
            "wall_s": makespan,
            # The schedule, not the host's speed, sets the makespan.
            "paced": True,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            "sim_requests": sum(
                self.served[fp]["reads"] + self.served[fp]["writes"] for fp in self.misses
            ),
            # The jobs the service executes are the misses; the hits'
            # latency is the per-layer ``service.hit_ms``.
            "job_ms": miss_ms,
            "attempted": len(self.schedule),
            "failed": len(failures),
            "digest": digest(
                sorted((fp, _strip_trace(result)) for fp, result in self.served.items())
            ),
            "model": model_counters(self.served.values()),
            "service": service_layers(hit_ms, miss_ms, late_ms, hit_spans, miss_spans, metrics),
            "unattributed_share": _unattributed(miss_ms, miss_spans),
            "failures": failures,
        }

    def check(self) -> list[str]:
        """Every hit must be what set-up wrote to the cache; two misses
        are re-run in process, bit for bit."""
        from repro.harness.store import serialize_result
        from repro.service.spec import parse_spec

        errors = [
            f"cache hit {fp[:12]} differs from the result set-up wrote"
            for fp, result in sorted(self.served.items())
            if fp in self.expected and _strip_trace(result) != _strip_trace(self.expected[fp])
        ]
        for fp in random.Random(self.seed).sample(sorted(self.misses), min(2, len(self.misses))):
            job = parse_spec(self.misses[fp]).to_job()
            local = json.loads(json.dumps(serialize_result(job.execute())))
            if _strip_trace(local) != _strip_trace(self.served[fp]):
                errors.append(f"service result for {self.misses[fp]} differs from the scalar engine")
        return errors

    def close(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        try:
            if self.client is not None:
                self.client.shutdown()
            server.wait(timeout=60)
        except Exception:
            server.kill()
            server.wait(timeout=30)
            raise
        finally:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def _strip_trace(result: dict) -> dict:
    return {key: value for key, value in result.items() if key != "trace"}


def _span_ms(spans_per_job: list[list[dict]], name: str) -> list[float]:
    return [
        (span["end_s"] - span["start_s"]) * 1e3
        for spans in spans_per_job
        for span in spans
        if span["name"] == name
    ]


def _unattributed(miss_ms: list[float], miss_spans: list[list[dict]]) -> float:
    """Share of miss latency outside the server's own span tree."""
    if not miss_ms:
        return 0.0
    inside = sum(
        (max(s["end_s"] for s in spans) - min(s["start_s"] for s in spans)) * 1e3
        for spans in miss_spans
    )
    return 1.0 - inside / sum(miss_ms)


def _counter(metrics: dict, name: str) -> float:
    return float(sum(series["value"] for series in metrics.get(name, {}).get("series", ())))


def service_layers(hit_ms, miss_ms, late_ms, hit_spans, miss_spans, metrics) -> dict:
    """Service-side per-layer numbers for one pass, plus the raw samples
    the benchmark pools across passes."""
    submissions = _counter(metrics, "service.submissions")
    return {
        "samples": {
            "service.hit_ms": hit_ms,
            "service.miss_ms": miss_ms,
            "service.gen_late_ms": late_ms,
            "service.queue_wait_ms": _span_ms(miss_spans, "queue.wait"),
            "service.execute_ms": _span_ms(miss_spans, "execute"),
            "service.store_write_ms": _span_ms(miss_spans, "store.write"),
            "service.cache_lookup_ms": _span_ms(hit_spans, "cache.lookup"),
        },
        "counters": {
            "service.batch_chunks": _counter(metrics, "service.batch_chunks"),
            "service.batched_lanes": _counter(metrics, "service.batched_lanes"),
            "service.rejected": _counter(metrics, "service.rejected"),
            "service.hit_ratio": (
                _counter(metrics, "service.cache_hits") / submissions if submissions else 0.0
            ),
        },
    }


# ----------------------------------------------------------------------

WORKLOADS = {
    "paper-sweep": PaperSweep,
    "alloc-sweep": AllocSweep,
    "verify-fuzz": VerifyFuzz,
    "service-mix": ServiceMix,
}


def run_pass(work, trace: bool, started: float) -> dict:
    """Set up, run and check one pass; ``started`` is when the pass's
    process began (its set-up time runs from there). The pass's speed
    probe samples ``run()``."""
    probe = work.speed_probe()
    tracer = LayerTracer().install() if trace else None
    try:
        work.setup()
        ready = time.monotonic()
        before = tracer.snapshot() if tracer else None
        probe.start()
        outcome = work.run()
        probe.stop()
        if tracer is not None:
            after = tracer.snapshot()
            tracer.uninstall()
            outcome["layers"] = after["layers"]
            outcome["window_self_s"] = sum(
                after["layers"][name]["self_s"] - before["layers"][name]["self_s"]
                for name in after["layers"]
            )
            outcome["window_top_busy_s"] = after["top_busy_s"] - before["top_busy_s"]
            outcome["spans"] = [dataclasses.astuple(span) for span in tracer.spans]
    finally:
        probe.stop()
        if tracer is not None and tracer.patched():
            tracer.uninstall()
        work.close()
    outcome["setup_s"] = ready - started
    outcome["speed"] = probe.speed()
    outcome["errors"] = work.check()
    outcome["traced"] = trace
    return outcome


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="Run one benchmark pass.")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=None,
        help="time.monotonic() when the parent launched this process",
    )
    parser.add_argument("--workdir", type=Path, default=Path.cwd())
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload](args.seed, args.workdir)
    outcome = run_pass(
        work, bool(args.trace), args.spawned_at if args.spawned_at is not None else started
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
