"""Exporters: Prometheus text format and OTLP-style span JSONL."""

import json

from repro.analysis import AnalysisOptions, analyze
from repro.obs import (
    MetricsRegistry,
    RunContext,
    SpanEvent,
    Tracer,
    collecting,
    otlp_spans,
    prometheus_text,
    run_context,
    tracing,
    write_otlp_jsonl,
)
from repro.programs import example1


def span(name, start, duration, thread_id=1, depth=0, parent=None, **attrs):
    return SpanEvent(
        name=name,
        start=start,
        duration=duration,
        thread_id=thread_id,
        parent=parent,
        depth=depth,
        attrs=attrs,
    )


class TestPrometheusText:
    def test_counters_follow_the_total_convention(self):
        registry = MetricsRegistry(catalog=())
        registry.inc("omega.sat-tests", 3)
        text = prometheus_text(registry)
        assert "# TYPE repro_omega_sat_tests_total counter" in text
        assert "repro_omega_sat_tests_total 3" in text
        assert text.endswith("\n")

    def test_gauges(self):
        registry = MetricsRegistry(catalog=())
        registry.set_gauge("omega.cache.size", 17.0)
        text = prometheus_text(registry)
        assert "# TYPE repro_omega_cache_size gauge" in text
        assert "repro_omega_cache_size 17" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry(catalog=())
        registry.observe("lat", 0.05, boundaries=(0.1, 1.0))
        registry.observe("lat", 0.5, boundaries=(0.1, 1.0))
        registry.observe("lat", 5.0, boundaries=(0.1, 1.0))
        text = prometheus_text(registry)
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text

    def test_series_sorted_and_deterministic(self):
        registry = MetricsRegistry(catalog=())
        registry.inc("b.second")
        registry.inc("a.first")
        text = prometheus_text(registry)
        assert text.index("repro_a_first_total") < text.index(
            "repro_b_second_total"
        )
        assert prometheus_text(registry) == text

    def test_real_run_renders_without_surprises(self):
        registry = MetricsRegistry()
        with collecting(registry):
            analyze(example1(), AnalysisOptions(extended=True))
        text = prometheus_text(registry)
        assert "repro_analysis_pairs_analyzed_total" in text
        for line in text.splitlines():
            assert line.startswith(("# TYPE ", "repro_"))


class TestOtlpSpans:
    def test_empty(self):
        assert otlp_spans([]) == []

    def test_parent_links_rebuilt_from_nesting(self):
        events = [
            span("child", 1.1, 0.2, depth=1, parent="root"),
            span("root", 1.0, 1.0),
        ]
        root, child = otlp_spans(events)
        assert root["name"] == "root"
        assert root["parentSpanId"] == ""
        assert child["parentSpanId"] == root["spanId"]

    def test_timestamps_normalized_to_origin(self):
        (one,) = otlp_spans([span("s", 123.456, 0.5)])
        assert one["startTimeUnixNano"] == 0
        assert one["endTimeUnixNano"] == 500_000_000

    def test_thread_ids_remapped_dense(self):
        events = [
            span("b", 2.0, 0.1, thread_id=9041),
            span("a", 1.0, 0.1, thread_id=77),
        ]
        first, second = otlp_spans(events)
        assert first["name"] == "a" and first["thread"] == 0
        assert second["name"] == "b" and second["thread"] == 1

    def test_trace_id_derives_from_run_context(self):
        events = [span("s", 1.0, 0.1)]
        with run_context(RunContext("deadbeef0001")):
            (one,) = otlp_spans(events)
        (two,) = otlp_spans(events, trace_id="ab" * 16)
        assert len(one["traceId"]) == 32
        assert two["traceId"] == "ab" * 16
        assert one["traceId"] != two["traceId"]

    def test_attributes_sorted_and_stringified(self):
        (one,) = otlp_spans([span("s", 1.0, 0.1, z=1, a="x")])
        assert [attr["key"] for attr in one["attributes"]] == ["a", "z"]
        assert one["attributes"][0]["value"] == {"stringValue": "x"}

    def test_real_trace_round_trips_to_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracing(tracer):
            analyze(example1(), AnalysisOptions(extended=True))
        path = tmp_path / "deep" / "otlp.jsonl"
        count = write_otlp_jsonl(tracer.events, path, trace_id="cd" * 16)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert count == len(lines) == len(tracer.events)
        names = {line["name"] for line in lines}
        assert "analysis.analyze" in names
        roots = [line for line in lines if line["parentSpanId"] == ""]
        by_id = {line["spanId"]: line for line in lines}
        for line in lines:
            if line["parentSpanId"]:
                assert line["parentSpanId"] in by_id
        assert any(root["name"] == "analysis.analyze" for root in roots)
