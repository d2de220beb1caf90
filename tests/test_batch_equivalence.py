"""Cross-engine equivalence: batched lockstep kernel vs scalar engine.

``repro.batch`` steps many (config, seed) instances in one process; the
scalar engine (``repro.sim`` / ``repro.controller``) is the bit-identity
reference. This suite replays seeded VerifyCase stimuli through both
engines via ``tests.equivalence_harness`` and asserts RunResult equality
field-by-field:

- a deterministic configuration matrix covering every scheduling policy,
  mapping, MCR mechanism subset, combined mode, multi-channel /
  multi-core shapes and refresh-off — batched *heterogeneously* in one
  kernel invocation;
- randomly sampled cases from the verify fuzzer's own distribution;
- the shrinker-minimized ``tests/corpus`` artifacts, replayed as
  regression cases;
- a Hypothesis lane-isolation property: arbitrary mixed batches produce
  per-instance results identical to running each case alone;
- pinning of the refresh spread schedule both engines read against the
  eager reference builder (``tests.reference_refresh``), and of the
  compat predicate's grouping rules.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    MAX_LANES,
    BatchCompatError,
    from_verify_case,
    incompatibility,
    is_batchable,
    job_incompatibility,
    run_batch,
)
from repro.batch.tables import spread_schedule
from repro.core.api import SystemSpec
from repro.core.mcr_mode import MCRMode
from repro.dram.refresh import RefreshPlan, window_counts
from repro.verify.corpus import corpus_paths, load_artifact
from repro.verify.generator import VerifyCase, build_spec, sample_case
from tests.equivalence_harness import (
    assert_equivalent,
    batch_vs_scalar,
    run_batched,
    run_scalar,
)
from tests.reference_refresh import reference_spread_schedule

# ----------------------------------------------------------------------
# Deterministic configuration matrix (batched heterogeneously)
# ----------------------------------------------------------------------

#: One case per scalar-engine feature the kernel must reproduce exactly.
CONFIG_MATRIX = (
    VerifyCase(seed=1, n_requests=60),  # conventional DRAM baseline
    VerifyCase(seed=2, k=2, m=2, region_pct=100.0, n_requests=60),
    VerifyCase(seed=3, k=4, m=4, region_pct=100.0, n_requests=60),
    VerifyCase(seed=4, k=2, m=1, region_pct=50.0, n_requests=60),  # skipping
    VerifyCase(  # combined mode: two MCR regions with distinct K/M
        seed=5, k=4, m=2, region_pct=25.0,
        alt_k=2, alt_m=2, alt_region_pct=50.0, n_requests=60,
    ),
    VerifyCase(  # mechanism subset: no early access / early precharge
        seed=6, k=2, m=2, region_pct=100.0,
        early_access=False, early_precharge=False, n_requests=60,
    ),
    VerifyCase(  # fast-refresh off, skipping only
        seed=7, k=4, m=2, region_pct=50.0, fast_refresh=False, n_requests=60,
    ),
    VerifyCase(seed=8, policy="FCFS", n_requests=60),
    VerifyCase(seed=9, policy="CLOSED_PAGE", k=2, m=2, region_pct=50.0, n_requests=60),
    VerifyCase(seed=10, mapping="PAGE_INTERLEAVING", n_requests=60),
    VerifyCase(seed=11, mapping="BIT_REVERSAL", k=4, m=4, region_pct=100.0, n_requests=60),
    VerifyCase(seed=12, channels=2, ranks_per_channel=1, banks_per_rank=8, n_requests=60),
    VerifyCase(seed=13, refresh_enabled=False, n_requests=60),
    VerifyCase(seed=14, n_traces=2, n_requests=40),  # multicore
    VerifyCase(seed=15, trace_kind="miss_heavy", n_requests=60),
    VerifyCase(seed=16, trace_kind="write_miss", n_requests=60),
    VerifyCase(seed=17, trace_kind="refresh_heavy", n_requests=12),
)


class TestConfigMatrix:
    def test_heterogeneous_batch_bit_identical(self):
        """The whole matrix runs as ONE kernel invocation — policies,
        mappings, geometries and modes all mixed — and every lane must
        equal its scalar run exactly."""
        assert len(CONFIG_MATRIX) <= MAX_LANES
        mismatches = batch_vs_scalar(CONFIG_MATRIX)
        assert mismatches == [], "\n".join(mismatches)

    def test_matrix_metrics_equal_scalar_hub(self):
        """Batch-lane metric mirrors vs the scalar observability hub:
        the whole matrix batched in ONE kernel invocation with
        ``metrics=True`` must yield, per lane, a ``RunResult`` (metrics
        snapshot included) equal to a scalar run under
        ``ObservabilityConfig(metrics=True)`` — same series, same label
        sets, same counts, buckets and quantiles."""
        from repro.core.api import run_system
        from repro.obs.hub import ObservabilityConfig

        instances = [
            replace(from_verify_case(case), metrics=True)
            for case in CONFIG_MATRIX
        ]
        batched = run_batch(instances)
        for case, instance, got in zip(CONFIG_MATRIX, instances, batched):
            want = run_system(
                instance.traces,
                MCRMode(instance.mode),
                spec=instance.spec,
                max_cycles=instance.max_cycles,
                observability=ObservabilityConfig(metrics=True),
            )
            label = f"metrics seed={case.seed}"
            assert got.metrics is not None, label
            assert got.metrics == want.metrics, label
            assert_equivalent(got, want, label)


class TestSampledSweep:
    @pytest.mark.parametrize("seed", (101, 202, 303))
    def test_sampled_cases_bit_identical(self, seed):
        """Cases drawn from the verify fuzzer's own distribution.

        The fuzzer also samples mechanism-plugin cases; those are not
        batchable (the kernel vectorizes the MCR reference device only),
        so the sweep asserts the compat gate names the plugin and keeps
        the batchable majority for the bit-identity comparison.
        """
        rng = random.Random(seed)
        cases = [sample_case(rng) for _ in range(8)]
        batchable = []
        for case in cases:
            if case.mechanism == "mcr":
                batchable.append(case)
            else:
                reason = incompatibility(build_spec(case))
                assert reason is not None and case.mechanism in reason
        mismatches = batch_vs_scalar(batchable)
        assert mismatches == [], "\n".join(mismatches)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", (404, 505))
    def test_sampled_cases_bit_identical_wide(self, seed):
        rng = random.Random(seed)
        cases = [
            case
            for case in (sample_case(rng) for _ in range(24))
            if case.mechanism == "mcr"
        ]
        mismatches = batch_vs_scalar(cases)
        assert mismatches == [], "\n".join(mismatches)


# ----------------------------------------------------------------------
# Corpus regression replay
# ----------------------------------------------------------------------

ARTIFACTS = corpus_paths()


class TestCorpusReplay:
    @pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.stem)
    def test_corpus_case_bit_identical(self, path):
        """Every shrinker-minimized reproducer in tests/corpus replays
        through the batch kernel bit-identically to the scalar engine.
        Mechanism-plugin reproducers are scalar-only; for those the
        kernel must refuse with the plugin named in the reason."""
        case = load_artifact(path)["case"]
        if case.mechanism != "mcr":
            reason = incompatibility(build_spec(case))
            assert reason is not None and case.mechanism in reason
            return
        [batched] = run_batched([case])
        assert_equivalent(batched, run_scalar(case), f"corpus {path.stem}")


# ----------------------------------------------------------------------
# Lane isolation: mixed batches equal solo runs (Hypothesis)
# ----------------------------------------------------------------------

_POOL_SIZE = 6
_pool: dict = {}


def _case_pool():
    """A fixed pool of sampled cases plus their memoized scalar results,
    built once — examples only pay for the batch side."""
    if not _pool:
        cases = []
        i = 0
        while len(cases) < _POOL_SIZE:
            case = sample_case(random.Random(9_000 + i))
            i += 1
            if case.mechanism != "mcr":  # plugin lanes run scalar-only
                continue
            cases.append(replace(case, n_requests=min(case.n_requests, 80)))
        _pool["cases"] = cases
        _pool["scalar"] = [run_scalar(case) for case in cases]
    return _pool["cases"], _pool["scalar"]


class TestLaneIsolation:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(0, _POOL_SIZE - 1), min_size=1, max_size=5))
    def test_mixed_batches_match_solo_runs(self, picks):
        """Any mix (sizes 1..5, duplicates allowed, heterogeneous
        K/M/policies/geometries) yields per-lane results identical to
        running each case alone — no cross-lane state leaks."""
        cases, scalar = _case_pool()
        batched = run_batched(cases[i] for i in picks)
        for lane, i in enumerate(picks):
            assert_equivalent(batched[lane], scalar[i], f"lane {lane} (pool case {i})")

    def test_batch_of_duplicates_is_n_copies(self):
        cases, scalar = _case_pool()
        batched = run_batched([cases[0]] * 4)
        for lane, got in enumerate(batched):
            assert_equivalent(got, scalar[0], f"duplicate lane {lane}")


# ----------------------------------------------------------------------
# The spread schedule both engines read, pinned against the reference
# ----------------------------------------------------------------------


class TestSpreadSchedulePin:
    @pytest.mark.parametrize(
        "mode_text",
        (
            "off",
            "2/2x/100%reg",
            "4/4x/100%reg",
            "2/2x/50%reg",
            "2/4x/50%reg",
            "1/2x/25%reg",
            "1/4x/100%reg",
        ),
    )
    def test_matches_refresh_plan(self, mode_text):
        self._check(MCRMode.parse(mode_text).config)

    def test_matches_refresh_plan_combined(self):
        mode = MCRMode.combined(
            primary="4/4x", alt="2/2x", primary_region_pct=25, alt_region_pct=50
        )
        self._check(mode.config)

    def test_matrix_modes_match_reference(self):
        configs = {case.mode().config for case in CONFIG_MATRIX}
        assert any(config.has_alt_region for config in configs)
        for config in configs:
            self._check(config)

    @staticmethod
    def _check(config):
        """The kernel's schedule and RefreshPlan's (the scalar engine's)
        must both equal the eager reference builder slot for slot over a
        full window."""
        counts = window_counts(config)
        expected = reference_spread_schedule(counts)
        plan = RefreshPlan(VerifyCase().geometry(), config)
        window = range(plan.slots_per_window)
        assert [plan.spread_kind(i) for i in window] == expected
        kernel = spread_schedule(counts)
        assert [kernel.kind(i) for i in window] == expected


# ----------------------------------------------------------------------
# Compatibility predicate (the harness grouping rule)
# ----------------------------------------------------------------------


class TestCompatPredicate:
    def test_plain_spec_is_batchable(self):
        assert incompatibility(SystemSpec()) is None
        assert is_batchable(SystemSpec())

    def test_allocation_requires_scalar(self):
        spec = SystemSpec(allocation="collision-free")
        reason = incompatibility(spec)
        assert reason is not None and "allocation" in reason
        assert not is_batchable(spec)

    def test_metrics_only_observability_is_batchable(self):
        from repro.obs.hub import ObservabilityConfig

        assert (
            incompatibility(
                SystemSpec(), observability=ObservabilityConfig(metrics=True)
            )
            is None
        )

    def test_deep_observability_requires_scalar(self):
        from repro.obs.hub import ObservabilityConfig

        for config in (
            ObservabilityConfig(trace=True),
            ObservabilityConfig(metrics=True, invariants=True),
            ObservabilityConfig(profile=True),
            ObservabilityConfig(command_sink=lambda *a: None),
        ):
            reason = incompatibility(SystemSpec(), observability=config)
            assert reason is not None and "observability" in reason

    def test_job_predicate_follows_spec(self):
        from repro.harness.jobs import SimJob
        from repro.verify.generator import build_traces

        traces = build_traces(VerifyCase(seed=3, n_requests=10))
        mode = MCRMode.off()
        assert job_incompatibility(SimJob.from_traces(traces, mode, SystemSpec())) is None
        scalar_only = SimJob.from_traces(
            traces, mode, SystemSpec(allocation="collision-free")
        )
        assert "allocation" in job_incompatibility(scalar_only)

    def test_kernel_rejects_incompatible_instance(self):
        incompatible = replace(
            from_verify_case(VerifyCase(seed=3, n_requests=10)),
            spec=SystemSpec(allocation="collision-free"),
        )
        with pytest.raises(BatchCompatError, match="allocation"):
            run_batch([incompatible])

    def test_kernel_rejects_unparsed_mode(self):
        instance = replace(
            from_verify_case(VerifyCase(seed=3, n_requests=10)), mode="4/4x"
        )
        with pytest.raises(BatchCompatError, match="mode"):
            run_batch([instance])

    def test_empty_batch_is_empty(self):
        assert run_batch([]) == []

    def test_instances_accept_max_cycles_none(self):
        """The harness path (SimJob semantics) runs without a cycle cap;
        results still equal the scalar run."""
        case = VerifyCase(seed=21, k=2, m=2, region_pct=50.0, n_requests=40)
        instance = replace(from_verify_case(case), max_cycles=None)
        [got] = run_batch([instance])
        assert_equivalent(got, run_scalar(case), "max_cycles=None")
