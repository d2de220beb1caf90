"""Executor: parallel output equals serial output; dedupe; failure policy."""

import os
import signal

import pytest

from repro.core.api import SystemSpec
from repro.core.mcr_mode import MCRMode
from repro.cpu.trace import TraceProvenance
from repro.harness import (
    HarnessConfig,
    HarnessInterrupted,
    ResultStore,
    SimJob,
    Telemetry,
    execute_jobs,
)
from repro.workloads import geometry_key


#: Page allocation needs the scalar engine's row remapper, so the
#: routing rule sends jobs with this spec to the scalar engine.
_SCALAR_SPEC = SystemSpec(allocation="collision-free")


def _jobs(baseline_spec=SystemSpec()):
    """A small sweep: two workloads × (baseline + one MCR mode). The MCR
    jobs use collision-free allocation, so they run on the scalar engine."""
    jobs = []
    for profile in ("comm2", "libq"):
        provenance = TraceProvenance(
            profile=profile,
            display_name=profile,
            n_requests=250,
            seed=11,
            row_offset=0,
            geometry_key=geometry_key(None),
        )
        jobs.append(SimJob.from_provenances([provenance], MCRMode.off(), baseline_spec))
        jobs.append(
            SimJob.from_provenances(
                [provenance], MCRMode.parse("4/4x/100%reg"), _SCALAR_SPEC
            )
        )
    return jobs


def _scalar_results(jobs):
    """The reference: every job run alone on the scalar engine."""
    return {job.fingerprint: job.execute() for job in jobs}


@pytest.mark.slow
def test_parallel_results_equal_serial():
    serial = execute_jobs(_jobs(), HarnessConfig(parallel=1), memo={})
    parallel = execute_jobs(_jobs(), HarnessConfig(parallel=2), memo={})
    assert list(serial) == list(parallel)  # same fingerprints, same order
    assert serial == parallel  # bit-identical RunResults


def test_duplicate_jobs_execute_once():
    job = _jobs()[0]
    telemetry = Telemetry()
    results = execute_jobs(
        [job, job, job], HarnessConfig(), memo={}, telemetry=telemetry
    )
    assert telemetry.executed == 1
    assert list(results) == [job.fingerprint]


def test_memo_hit_skips_execution():
    job = _jobs()[0]
    memo = {}
    execute_jobs([job], HarnessConfig(), memo=memo)
    telemetry = Telemetry()
    execute_jobs([job], HarnessConfig(), memo=memo, telemetry=telemetry)
    assert telemetry.executed == 0
    assert telemetry.memory_hits == 1


def _bad_job():
    """A job whose trace cannot be built: it raises wherever it runs."""
    return SimJob.from_provenances(
        [
            TraceProvenance(
                profile="no-such-workload",
                display_name="bad",
                n_requests=100,
                seed=1,
                row_offset=0,
                geometry_key=geometry_key(None),
            )
        ],
        MCRMode.off(),
        SystemSpec(),
    )


@pytest.mark.slow
def test_broken_job_surfaces_after_retry():
    """A job that crashes in its worker is retried in the parent; a job
    that fails both raises instead of silently vanishing from the sweep."""
    bad = _bad_job()
    telemetry = Telemetry()
    with pytest.raises(Exception):
        execute_jobs(
            [_jobs()[0], bad],  # two jobs so the pool path actually runs
            HarnessConfig(parallel=2),
            memo={},
            telemetry=telemetry,
        )
    assert telemetry.retried == 1
    assert telemetry.failures == 1


@pytest.mark.slow
def test_retry_reason_is_counted_not_silent():
    """Regression: a worker timeout that the parent retry recovers used to
    vanish from all reporting. The retry must be counted per reason and
    surface in the metrics registry (what ``report --metrics`` prints)."""
    telemetry = Telemetry()
    results = execute_jobs(
        _jobs()[:2],
        # Effectively-zero budget: both futures time out in the parent,
        # then retry serially (and succeed).
        HarnessConfig(parallel=2, timeout_s=1e-6),
        memo={},
        telemetry=telemetry,
    )
    assert len(results) == 2  # the sweep still completed
    assert telemetry.retried >= 1
    assert telemetry.retry_reasons.get("TimeoutError", 0) >= 1
    snapshot = telemetry.to_metrics().snapshot()
    series = snapshot["harness.retries"]["series"]
    assert any(
        entry["labels"] == {"reason": "TimeoutError"} and entry["value"] >= 1
        for entry in series
    )
    assert f"{telemetry.retried} retried" in telemetry.summary()
    assert "TimeoutError" in telemetry.summary()


def test_graceful_shutdown_drains_and_persists(tmp_path, monkeypatch):
    """SIGINT mid-sweep: the in-flight job finishes and persists, the
    queued remainder is cancelled, and HarnessInterrupted reports both.
    The interrupt is injected via SimJob.execute, which runs every job
    the routing rule sends to the scalar engine."""
    jobs = _jobs(baseline_spec=_SCALAR_SPEC)
    calls = {"n": 0}
    original = SimJob.execute

    def execute_and_interrupt(self):
        calls["n"] += 1
        if calls["n"] == 1:
            os.kill(os.getpid(), signal.SIGINT)
        return original(self)

    monkeypatch.setattr(SimJob, "execute", execute_and_interrupt)
    before = signal.getsignal(signal.SIGINT)
    telemetry = Telemetry()
    memo: dict = {}
    store = ResultStore(tmp_path)
    with pytest.raises(HarnessInterrupted) as stop:
        execute_jobs(
            jobs,
            HarnessConfig(),
            memo=memo,
            store=store,
            telemetry=telemetry,
        )
    assert stop.value.completed == 1
    assert stop.value.cancelled == len(jobs) - 1
    assert "persisted" in str(stop.value)
    # The drained job is on disk; the cancelled ones never executed.
    assert len(memo) == 1
    assert jobs[0].fingerprint in store
    assert all(job.fingerprint not in store for job in jobs[1:])
    assert telemetry.executed == 1
    assert telemetry.cancelled == len(jobs) - 1
    assert "cancelled by shutdown" in telemetry.summary()
    # The sweep-scoped handlers were restored on exit.
    assert signal.getsignal(signal.SIGINT) is before
    # Re-running executes exactly the missing jobs.
    monkeypatch.setattr(SimJob, "execute", original)
    resumed = Telemetry()
    results = execute_jobs(
        jobs, HarnessConfig(), memo={}, store=store, telemetry=resumed
    )
    assert len(results) == len(jobs)
    assert resumed.executed == len(jobs) - 1
    assert resumed.store_hits == 1


def test_graceful_false_keeps_default_signal_handling():
    """With graceful=False the sweep must not install any handlers."""
    before = signal.getsignal(signal.SIGINT)
    seen = {}

    class Probe:
        fingerprint = "probe"
        label = "probe"
        # What the routing rule reads: this job runs on the scalar engine.
        metrics = False
        spec = _SCALAR_SPEC

        def execute(self):
            seen["handler"] = signal.getsignal(signal.SIGINT)
            from repro.workloads import make_trace

            job = SimJob.from_traces(
                [make_trace("comm2", n_requests=50, seed=0)],
                MCRMode.off(),
                SystemSpec(),
            )
            return job.execute()

    execute_jobs([Probe()], HarnessConfig(graceful=False), memo={})
    assert seen["handler"] is before


# ----------------------------------------------------------------------
# Routing: compatible jobs run as kernel chunks
# ----------------------------------------------------------------------


def _batchable_jobs(n=5):
    from repro.workloads import make_trace

    return [
        SimJob.from_traces(
            [make_trace("comm2", n_requests=40, seed=seed)],
            MCRMode.parse("2/2x/100%reg"),
            SystemSpec(),
        )
        for seed in range(n)
    ]


def test_batched_results_equal_scalar():
    """Compatible jobs run through the lockstep kernel and the
    incompatible (collision-free allocation) ones on the scalar engine;
    the returned mapping is bit-identical to running every job alone on
    the scalar engine."""
    telemetry = Telemetry()
    batched = execute_jobs(_jobs(), HarnessConfig(), memo={}, telemetry=telemetry)
    scalar = _scalar_results(_jobs())
    assert list(scalar) == list(batched)  # same fingerprints, same order
    assert scalar == batched  # bit-identical RunResults
    wheres = [record.where for record in telemetry.records]
    assert wheres.count("batch") == 2  # the plain-spec jobs
    assert wheres.count("parent") == 2  # the allocation jobs fell back


def test_grouped_sweep_matches_scalar_sweep_and_store(tmp_path):
    """A mixed sweep routed through ``plan_units`` produces RunResults
    bit-identical to the scalar engine's AND persists byte-identical
    store entries — callers reading the cache later cannot tell which
    engine wrote it."""
    scalar_store = ResultStore(tmp_path / "scalar")
    batch_store = ResultStore(tmp_path / "batch")
    scalar = _scalar_results(_jobs())
    for fingerprint, result in scalar.items():
        scalar_store.put(fingerprint, result)
    batched = execute_jobs(_jobs(), HarnessConfig(), memo={}, store=batch_store)
    assert list(scalar) == list(batched)
    assert scalar == batched  # bit-identical RunResults
    scalar_files = sorted(p.stem for p in scalar_store.directory.glob("*.json"))
    batch_files = sorted(p.stem for p in batch_store.directory.glob("*.json"))
    assert scalar_files == batch_files == sorted(scalar)
    for stem in scalar_files:
        assert scalar_store.path_for(stem).read_bytes() == batch_store.path_for(
            stem
        ).read_bytes()


def test_partially_cached_sweep_peels_hits_before_chunking():
    """Cache hits are peeled before unit planning: re-running a sweep
    with some results already memoized executes only the cold jobs, as
    one smaller kernel chunk."""
    jobs = _batchable_jobs(5)
    memo = {}
    execute_jobs(jobs[:2], HarnessConfig(), memo=memo)
    assert len(memo) == 2
    telemetry = Telemetry()
    results = execute_jobs(jobs, HarnessConfig(), memo=memo, telemetry=telemetry)
    assert list(results) == [job.fingerprint for job in jobs]
    assert telemetry.memory_hits == 2
    assert telemetry.executed == 3  # only the cold lanes ran
    assert [record.where for record in telemetry.records] == ["batch"] * 3
    # The blended sweep is still bit-identical to the scalar engine.
    assert results == _scalar_results(_batchable_jobs(5))


def test_batch_chunking_runs_every_chunk():
    from repro.harness.executor import _run_units, _ShutdownGuard
    from repro.harness.planner import plan_units

    jobs = _batchable_jobs(5)
    telemetry = Telemetry()
    done = {}
    _run_units(
        plan_units(jobs, max_lanes=2),
        telemetry,
        lambda job, result: done.__setitem__(job.fingerprint, result),
        _ShutdownGuard(enabled=False),
    )
    assert set(done) == {job.fingerprint for job in jobs}
    assert telemetry.executed == 5
    assert all(record.where == "batch" for record in telemetry.records)


def test_batch_chunk_failure_counts_retry_reason(monkeypatch):
    """Regression: a kernel-chunk failure used to fall back to the
    scalar engine without touching ``harness.retries{reason}`` — the
    batch path must report its retries exactly like a worker crash."""
    import repro.batch as batch_module

    def exploding_kernel(instances):
        raise MemoryError("lane allocation failed")

    monkeypatch.setattr(batch_module, "run_batch", exploding_kernel)
    jobs = _batchable_jobs(3)
    telemetry = Telemetry()
    results = execute_jobs(jobs, HarnessConfig(), memo={}, telemetry=telemetry)
    # Every job completed via the scalar fallback...
    assert list(results) == [job.fingerprint for job in jobs]
    assert all(record.where == "retry" for record in telemetry.records)
    # ...and none of the retries were silent.
    assert telemetry.retried == 3
    assert telemetry.retry_reasons == {"MemoryError": 3}
    snapshot = telemetry.to_metrics().snapshot()
    series = snapshot["harness.retries"]["series"]
    assert any(
        entry["labels"] == {"reason": "MemoryError"} and entry["value"] == 3
        for entry in series
    )
    assert "MemoryError" in telemetry.summary()
    # The fallback results are the reference scalar results, bit-identical.
    assert results == _scalar_results(_batchable_jobs(3))


def test_batch_shutdown_drains_current_chunk():
    """A shutdown mid-batch finishes the in-flight kernel chunk (its
    results persist) and cancels the chunks that never started."""
    from repro.harness.executor import _run_units
    from repro.harness.planner import plan_units

    jobs = _batchable_jobs(5)
    telemetry = Telemetry()

    class Guard:
        triggered = False

    done = []

    def complete(job, result):
        done.append(job.fingerprint)
        Guard.triggered = True  # request shutdown during the first chunk

    with pytest.raises(HarnessInterrupted) as stop:
        _run_units(plan_units(jobs, max_lanes=2), telemetry, complete, Guard)
    assert done == [job.fingerprint for job in jobs[:2]]
    assert stop.value.completed == 2
    assert stop.value.cancelled == 3
    assert telemetry.cancelled == 3


@pytest.mark.slow
def test_parallel_chunks_run_in_the_pool(monkeypatch):
    """With ``parallel=2`` the compatible jobs split into at least two
    kernel chunks, each one submission to a pool worker; every result
    equals the scalar engine's."""
    from repro.harness import executor
    from repro.harness.planner import plan_units

    def in_parent(*args, **kwargs):
        raise AssertionError("a chunk ran in the parent")

    monkeypatch.setattr(executor, "_run_chunk", in_parent)
    jobs = _batchable_jobs(5)
    assert len(plan_units(jobs, max_lanes=3)) >= 2
    telemetry = Telemetry()
    results = execute_jobs(
        jobs, HarnessConfig(parallel=2), memo={}, telemetry=telemetry
    )
    assert results == _scalar_results(jobs)
    assert [record.where for record in telemetry.records] == ["batch"] * len(jobs)


@pytest.mark.slow
def test_pool_chunk_failure_retries_each_lane():
    """A chunk that raises in a pool worker sends each of its lanes to
    one scalar retry in the parent, with the reason counted: the good
    lane recovers, the broken one fails its retry and raises."""
    jobs = _batchable_jobs(3) + [_bad_job()]
    telemetry = Telemetry()
    memo = {}
    with pytest.raises(Exception):
        # Two-lane chunks: the first runs in a worker, the second raises.
        execute_jobs(jobs, HarnessConfig(parallel=2), memo=memo, telemetry=telemetry)
    assert [record.where for record in telemetry.records] == ["batch", "batch", "retry"]
    assert telemetry.retried == 2
    assert list(telemetry.retry_reasons.values()) == [2]
    assert telemetry.failures == 1
    assert memo == _scalar_results(jobs[:3])


def test_inline_run_honours_the_session_config(monkeypatch):
    """``cached_run`` resolves under the session's own policy: with
    ``retry=False`` a kernel chunk that raises re-raises instead of
    retrying on the scalar engine."""
    import repro.batch as batch_module
    from repro.experiments.runner import cached_run
    from repro.harness import configure
    from repro.workloads import make_trace

    def exploding_kernel(instances):
        raise MemoryError("lane allocation failed")

    monkeypatch.setattr(batch_module, "run_batch", exploding_kernel)
    session = configure(HarnessConfig(retry=False))
    trace = make_trace("comm2", n_requests=40, seed=0)
    with pytest.raises(RuntimeError, match="batch chunk failed"):
        cached_run([trace], MCRMode.parse("2/2x/100%reg"), SystemSpec())
    assert session.telemetry.retried == 0
    assert session.telemetry.failures == 1
