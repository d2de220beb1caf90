"""Unit tests for the telemetry plane: trace context, OpenMetrics
exposition, and the perf-history ring + regression verdicts."""

import dataclasses
import json

import pytest

from repro.core import MCRMode, run_system
from repro.obs import MetricsRegistry, plane
from repro.obs.history import (
    RING_CAP,
    Tracked,
    append,
    check,
    load,
    metric_value,
    tracked_for,
    verdict,
)
from repro.obs.history import main as history_main
from repro.obs.prometheus import (
    OPENMETRICS_CONTENT_TYPE,
    ExemplarStore,
    ExpositionError,
    metric_name,
    parse_exposition,
    render_openmetrics,
)
from repro.workloads import make_trace

# ----------------------------------------------------------------------
# plane: contexts, headers, spans, stamping
# ----------------------------------------------------------------------


class TestTraceContext:
    def test_traceparent_round_trip(self):
        ctx = plane.new_trace()
        parsed = plane.parse_traceparent(ctx.traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    def test_new_trace_mints_fresh_ids(self):
        first, second = plane.new_trace(), plane.new_trace()
        assert first.trace_id != second.trace_id
        assert len(first.trace_id) == 32
        assert len(first.span_id) == 16
        assert first.parent_id is None

    def test_child_keeps_trace_and_parents_span(self):
        root = plane.new_trace()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "nonsense",
            "00-abc-def-01",  # wrong widths
            "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # bad version
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # non-hex
            "00-" + "a" * 32 + "-" + "b" * 16,  # missing flags
        ],
    )
    def test_malformed_traceparent_is_none_not_an_error(self, header):
        assert plane.parse_traceparent(header) is None

    def test_bind_scopes_the_ambient_context(self):
        assert plane.current() is None
        ctx = plane.new_trace()
        with plane.bind(ctx) as bound:
            assert bound is ctx
            assert plane.current() is ctx
        assert plane.current() is None


class TestSpansAndStamping:
    def test_span_defaults_to_child_of_ctx(self):
        ctx = plane.new_trace()
        record = plane.span("execute", ctx, 1.0, 2.0)
        assert record["trace_id"] == ctx.trace_id
        assert record["parent_id"] == ctx.span_id
        assert record["span_id"] != ctx.span_id
        json.dumps(record)  # JSON-ready by contract

    def test_root_span_form(self):
        ctx = plane.new_trace()
        record = plane.span(
            "service.admit", ctx, 1.0, 2.0, span_id=ctx.span_id, parent_id=None
        )
        assert record["span_id"] == ctx.span_id
        assert record["parent_id"] is None

    def _result(self):
        trace = make_trace("comm2", n_requests=40, seed=3)
        return run_system([trace], MCRMode.off())

    def test_stamp_is_purely_additive(self):
        result = self._result()
        ctx = plane.new_trace()
        stamped = plane.stamp_result(result, ctx)
        assert stamped.trace["trace_id"] == ctx.trace_id
        assert stamped.trace["root_span_id"] == ctx.span_id
        # Every measurement field is untouched.
        assert dataclasses.replace(stamped, trace=result.trace) == result

    def test_restamp_same_trace_merges_spans(self):
        result = self._result()
        ctx = plane.new_trace()
        first = plane.stamp_result(
            result, ctx, [plane.span("execute", ctx, 1.0, 2.0)]
        )
        second = plane.stamp_result(
            first, ctx, [plane.span("store.write", ctx, 2.0, 3.0)]
        )
        assert [s["name"] for s in second.trace["spans"]] == [
            "execute",
            "store.write",
        ]

    def test_stamp_different_trace_replaces(self):
        result = self._result()
        first_ctx, second_ctx = plane.new_trace(), plane.new_trace()
        stamped = plane.stamp_result(
            result, first_ctx, [plane.span("execute", first_ctx, 1.0, 2.0)]
        )
        restamped = plane.stamp_result(stamped, second_ctx)
        assert restamped.trace["trace_id"] == second_ctx.trace_id
        assert restamped.trace["spans"] == []

    def test_timed_span_appends_to_sink(self):
        ctx = plane.new_trace()
        sink = []
        with plane.timed_span("cache.lookup", ctx, sink):
            pass
        assert len(sink) == 1
        assert sink[0]["name"] == "cache.lookup"
        assert sink[0]["end_s"] >= sink[0]["start_s"]


# ----------------------------------------------------------------------
# prometheus: render -> parse round trip and validator rejections
# ----------------------------------------------------------------------


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("service.completed").inc(3)
    registry.counter("service.retries", reason="OSError").inc(1)
    registry.gauge("cache.entries").set(7)
    hist = registry.histogram("service.job_seconds", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 2.0, 30.0):
        hist.observe(value)
    return registry


class TestRenderOpenmetrics:
    def test_round_trip_through_the_parser(self):
        text = render_openmetrics(_registry().snapshot())
        assert text.endswith("# EOF\n")
        families = parse_exposition(text)
        assert families["service_completed"].type == "counter"
        assert families["service_completed"].samples[0].value == 3
        retry = families["service_retries"].samples[0]
        assert retry.name == "service_retries_total"
        assert retry.labels == {"reason": "OSError"}
        assert families["cache_entries"].samples[0].value == 7

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_openmetrics(_registry().snapshot())
        families = parse_exposition(text)
        samples = families["service_job_seconds"].samples
        buckets = {
            s.labels["le"]: s.value
            for s in samples
            if s.name.endswith("_bucket")
        }
        assert buckets == {"0.1": 1, "1": 2, "10": 3, "+Inf": 4}
        count = next(s for s in samples if s.name.endswith("_count"))
        assert count.value == 4

    def test_exemplar_rendered_and_parsed(self):
        store = ExemplarStore()
        store.record("service.job_seconds", 0.5, "ab" * 16, ts=123.0)
        text = render_openmetrics(_registry().snapshot(), store)
        families = parse_exposition(text)
        exemplars = [
            s.exemplar
            for s in families["service_job_seconds"].samples
            if s.exemplar is not None
        ]
        assert len(exemplars) == 1  # first wide-enough bucket only
        assert exemplars[0]["labels"] == {"trace_id": "ab" * 16}
        assert exemplars[0]["value"] == 0.5
        assert exemplars[0]["ts"] == 123.0

    def test_exemplar_suppressed_on_multi_series_families(self):
        registry = _registry()
        registry.histogram(
            "service.job_seconds", buckets=(0.1, 1.0, 10.0), shard="b"
        ).observe(0.2)
        store = ExemplarStore()
        store.record("service.job_seconds", 0.5, "ab" * 16)
        families = parse_exposition(
            render_openmetrics(registry.snapshot(), store)
        )
        assert all(
            s.exemplar is None
            for s in families["service_job_seconds"].samples
        )

    def test_metric_name_sanitization(self):
        assert metric_name("service.job_seconds") == "service_job_seconds"
        assert metric_name("9lives") == "_9lives"
        assert metric_name("a-b c") == "a_b_c"

    def test_content_type_is_versioned(self):
        assert "openmetrics-text" in OPENMETRICS_CONTENT_TYPE
        assert "version=1.0.0" in OPENMETRICS_CONTENT_TYPE


class TestParseExpositionRejections:
    def test_missing_eof(self):
        with pytest.raises(ExpositionError, match="EOF"):
            parse_exposition("# TYPE a counter\na_total 1\n")

    def test_undeclared_family(self):
        with pytest.raises(ExpositionError, match="no TYPE"):
            parse_exposition("mystery_total 1\n# EOF\n")

    def test_counter_without_total_suffix(self):
        with pytest.raises(ExpositionError, match="illegal suffix"):
            parse_exposition("# TYPE a counter\na 1\n# EOF\n")

    def test_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 9\n"
            "h_count 5\n"
            "# EOF\n"
        )
        with pytest.raises(ExpositionError, match="not cumulative"):
            parse_exposition(text)

    def test_histogram_missing_inf_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            "h_sum 9\n"
            "h_count 5\n"
            "# EOF\n"
        )
        with pytest.raises(ExpositionError, match=r"\+Inf"):
            parse_exposition(text)

    def test_count_disagrees_with_inf(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 9\n"
            "h_count 4\n"
            "# EOF\n"
        )
        with pytest.raises(ExpositionError, match="_count disagrees"):
            parse_exposition(text)

    def test_malformed_label_block(self):
        with pytest.raises(ExpositionError, match="malformed label"):
            parse_exposition('# TYPE g gauge\ng{oops} 1\n# EOF\n')

    def test_duplicate_family(self):
        with pytest.raises(ExpositionError, match="duplicate"):
            parse_exposition("# TYPE a counter\n# TYPE a counter\n# EOF\n")


# ----------------------------------------------------------------------
# history: ring file, verdicts, CLI
# ----------------------------------------------------------------------


def _report(name, **overrides):
    report = {
        "schema_version": 1,
        "name": name,
        "wall_s": 1.0,
        "overhead_pct": None,
        "commit": "abc1234",
        "detail": {},
    }
    report.update(overrides)
    return report


class TestHistoryRing:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        entry = append(_report("bench_a", wall_s=2.5), path=path, ts=100.0)
        assert entry["ts"] == 100.0
        loaded = load(path)
        assert len(loaded) == 1
        assert loaded[0]["name"] == "bench_a"
        assert loaded[0]["wall_s"] == 2.5

    def test_detail_filtered_to_scalars(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append(
            _report(
                "bench_a",
                detail={"speedup": 2.0, "nested": {"drop": 1}, "note": "ok"},
            ),
            path=path,
        )
        detail = load(path)[0]["detail"]
        assert detail == {"speedup": 2.0, "note": "ok"}

    def test_ring_caps_per_name(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for i in range(RING_CAP + 10):
            append(_report("bench_a", wall_s=float(i)), path=path, ts=float(i))
        append(_report("bench_b"), path=path)
        entries = load(path)
        a_entries = [e for e in entries if e["name"] == "bench_a"]
        assert len(a_entries) == RING_CAP
        assert a_entries[0]["wall_s"] == 10.0  # oldest dropped first
        assert len([e for e in entries if e["name"] == "bench_b"]) == 1

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append(_report("bench_a"), path=path)
        with path.open("a") as handle:
            handle.write("{not json\n")
            handle.write('{"no_name": true}\n')
        assert [e["name"] for e in load(path)] == ["bench_a"]


class TestVerdicts:
    def _entries(self, values, name="engine_hotpath_speedup"):
        return [
            {"name": name, "detail": {"min_speedup": v}} for v in values
        ]

    def test_insufficient_data(self):
        result = verdict("engine_hotpath_speedup", self._entries([2.0]))
        assert result.status == "insufficient-data"
        assert result.samples == 1
        assert "insufficient" in result.summary()

    def test_stable_trend(self):
        result = verdict(
            "engine_hotpath_speedup", self._entries([2.0] * 8)
        )
        assert result.status == "stable"
        assert result.change == pytest.approx(0.0)

    def test_regression_on_higher_is_better_drop(self):
        values = [2.0] * 5 + [1.0, 1.0, 1.0]  # recent window collapses
        result = verdict("engine_hotpath_speedup", self._entries(values))
        assert result.status == "regression"
        assert result.change < -0.15

    def test_improvement(self):
        values = [2.0] * 5 + [3.0, 3.0, 3.0]
        result = verdict("engine_hotpath_speedup", self._entries(values))
        assert result.status == "improvement"

    def test_overhead_shift_keeps_negative_values_usable(self):
        # Overhead percentages hover around zero (can be negative); the
        # shift moves them into geomean territory, and a jump from ~0%
        # to ~20% must read as a regression.
        entries = [
            {"name": "overhead", "overhead_pct": v}
            for v in [-1.0, 0.5, -0.5, 0.0, 1.0, 20.0, 22.0, 21.0]
        ]
        tracked = Tracked("overhead_pct", False, 0.05, shift=100.0)
        result = verdict("overhead", entries, tracked=tracked)
        assert result.status == "regression"

    def test_unknown_name_falls_back_to_wall_time(self):
        tracked = tracked_for("never-heard-of-it")
        assert tracked.metric == "wall_s"
        assert not tracked.higher_is_better

    def test_metric_value_dotted_path(self):
        entry = {"detail": {"min_speedup": 2.5}, "wall_s": 1.0}
        assert metric_value(entry, "detail.min_speedup") == 2.5
        assert metric_value(entry, "wall_s") == 1.0
        assert metric_value(entry, "detail.missing") is None
        assert metric_value({"wall_s": True}, "wall_s") is None  # bools excluded

    def test_custom_tracked_threshold(self):
        entries = self._entries([2.0] * 5 + [1.9, 1.9, 1.9])
        loose = verdict(
            "engine_hotpath_speedup",
            entries,
            tracked=Tracked("detail.min_speedup", True, 0.5),
        )
        tight = verdict(
            "engine_hotpath_speedup",
            entries,
            tracked=Tracked("detail.min_speedup", True, 0.01),
        )
        assert loose.status == "stable"
        assert tight.status == "regression"


class TestHistoryCli:
    def _seed(self, path, values, name="engine_hotpath_speedup"):
        for i, value in enumerate(values):
            append(
                _report(name, detail={"min_speedup": value}),
                path=path,
                ts=float(i),
            )

    def test_check_passes_on_stable(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        self._seed(path, [2.0] * 8)
        assert history_main(["check", "--file", str(path)]) == 0
        assert "stable" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        self._seed(path, [2.0] * 5 + [1.0] * 3)
        assert history_main(["check", "--file", str(path)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_check_tolerates_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.jsonl"
        assert history_main(["check", "--file", str(path)]) == 0
        assert "no entries" in capsys.readouterr().out

    def test_check_scoped_to_name(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self._seed(path, [2.0] * 5 + [1.0] * 3)  # regressing
        self._seed(path, [1.0] * 8, name="other_bench")
        assert (
            history_main(
                ["check", "--file", str(path), "--name", "other_bench"]
            )
            == 0
        )

    def test_show_prints_entries(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        self._seed(path, [2.0, 2.1])
        assert history_main(["show", "--file", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["name"] for line in lines)

    def test_verdicts_reported_by_check_function(self, tmp_path):
        path = tmp_path / "history.jsonl"
        self._seed(path, [2.0] * 8)
        verdicts = check(path)
        assert [v.name for v in verdicts] == ["engine_hotpath_speedup"]
        assert verdicts[0].status == "stable"
