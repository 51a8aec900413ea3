"""Prometheus rendering and the strict parse-back validator."""

from __future__ import annotations

import math

import pytest

from repro.obs.prometheus import (
    format_value,
    parse_prometheus_text,
    render_metrics,
)
from repro.service.stats import ServiceStats


def _sample(samples, name, **labels):
    return samples[(name, tuple(sorted(labels.items())))]


class TestFormatValue:
    @pytest.mark.parametrize(
        "value, rendered",
        [
            (math.inf, "+Inf"),
            (-math.inf, "-Inf"),
            (0.0, "0"),
            (3.0, "3"),
            (-7.0, "-7"),
            (0.5, "0.5"),
            (1234, "1234"),
        ],
    )
    def test_rendering(self, value, rendered):
        assert format_value(value) == rendered

    def test_round_trip_precision(self):
        value = 0.1 + 0.2
        assert float(format_value(value)) == value


class TestRenderMetrics:
    def test_build_info_and_registry_gauges(self):
        text = render_metrics(
            {},
            version="9.9.9",
            started_at=1700000000.0,
            registry={"tenant_count": 3, "tenants_loaded": 1,
                      "errors": {"not-found": 2}},
        )
        samples = parse_prometheus_text(text)
        assert _sample(samples, "repro_build_info", version="9.9.9") == 1.0
        assert _sample(samples, "repro_process_started_at_seconds") == (
            1700000000.0
        )
        assert _sample(samples, "repro_tenants") == 3.0
        assert _sample(samples, "repro_tenants_loaded") == 1.0
        assert _sample(samples, "repro_registry_errors_total",
                       kind="not-found") == 2.0

    def test_stats_counters_histograms_and_labels(self):
        stats = ServiceStats()
        stats.record_latency("query", 0.002)
        stats.record_latency("query", 0.4)
        stats.record_error("bad-request")
        document = {
            "service": stats.snapshot(),
            "result_cache": {"hits": 5, "misses": 2, "evictions": 1,
                             "size": 4, "max_size": 16, "hit_rate": 5 / 7},
            "graph": {"vertices": 10, "edges": 20, "labels": 3},
            "index": {"loaded": True, "landmarks": 4},
            "epoch": {"epoch_id": 7, "age_seconds": 1.5},
            "slow_queries": {"threshold_ms": 250.0, "max_entries": 16,
                             "kept": 1, "seen": 9, "dropped": 8,
                             "worst_ms": 400.0},
        }
        samples = parse_prometheus_text(
            render_metrics({"default": document}, version="1.0")
        )
        tenant = {"tenant": "default"}
        assert _sample(samples, "repro_errors_total",
                       kind="bad-request", **tenant) == 1.0
        assert _sample(samples, "repro_cache_hits_total",
                       cache="result", **tenant) == 5.0
        assert _sample(samples, "repro_epoch_id", **tenant) == 7.0
        assert _sample(samples, "repro_slow_queries_kept", **tenant) == 1.0
        assert _sample(samples, "repro_index_landmarks", **tenant) == 4.0
        # The histogram: +Inf bucket equals _count equals 2 observations.
        assert _sample(samples, "repro_request_latency_seconds_count",
                       endpoint="query", **tenant) == 2.0
        assert _sample(samples, "repro_request_latency_seconds_bucket",
                       endpoint="query", le="+Inf", **tenant) == 2.0
        assert _sample(samples, "repro_request_latency_seconds_sum",
                       endpoint="query", **tenant) == pytest.approx(0.402)

    def test_bucket_series_is_cumulative(self):
        stats = ServiceStats()
        for seconds in (0.001, 0.001, 0.01, 1.0):
            stats.record_latency("query", seconds)
        text = render_metrics(
            {"default": {"service": stats.snapshot()}}, version="1.0"
        )
        samples = parse_prometheus_text(text)   # validates monotonicity
        counts = sorted(
            (math.inf if value == "+Inf" else float(value), samples[key])
            for key in samples
            if key[0] == "repro_request_latency_seconds_bucket"
            for label, value in key[1]
            if label == "le"
        )
        assert counts[-1] == (math.inf, 4.0)
        assert all(b >= a for (_, a), (_, b) in zip(counts, counts[1:]))

    def test_label_values_are_escaped(self):
        stats = ServiceStats()
        stats.record_error('weird"kind\\with\nnewline')
        text = render_metrics(
            {"default": {"service": stats.snapshot()}}, version="1.0"
        )
        samples = parse_prometheus_text(text)
        assert _sample(samples, "repro_errors_total", tenant="default",
                       kind='weird"kind\\with\nnewline') == 1.0


class TestParserStrictness:
    def test_rejects_bad_sample_line(self):
        with pytest.raises(ValueError, match="bad sample line"):
            parse_prometheus_text("not a metric line at all {\n")

    def test_rejects_repeated_type_header(self):
        text = ("# TYPE repro_x gauge\nrepro_x 1\n"
                "# TYPE repro_x gauge\n")
        with pytest.raises(ValueError, match="repeated TYPE"):
            parse_prometheus_text(text)

    def test_rejects_duplicate_samples(self):
        with pytest.raises(ValueError, match="duplicate sample"):
            parse_prometheus_text("repro_x 1\nrepro_x 2\n")

    def test_rejects_missing_inf_bucket(self):
        text = ('repro_h_bucket{le="0.1"} 1\n'
                "repro_h_count 1\n")
        with pytest.raises(ValueError, match=r'le="\+Inf"'):
            parse_prometheus_text(text)

    def test_rejects_non_monotone_buckets(self):
        text = ('repro_h_bucket{le="0.1"} 5\n'
                'repro_h_bucket{le="0.2"} 3\n'
                'repro_h_bucket{le="+Inf"} 5\n')
        with pytest.raises(ValueError, match="not monotone"):
            parse_prometheus_text(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = ('repro_h_bucket{le="+Inf"} 5\n'
                "repro_h_count 4\n")
        with pytest.raises(ValueError, match="!= *_count|!= _count|_count"):
            parse_prometheus_text(text)

    def test_accepts_inf_nan_values(self):
        samples = parse_prometheus_text("repro_x +Inf\nrepro_y NaN\n")
        assert samples[("repro_x", ())] == math.inf
        assert math.isnan(samples[("repro_y", ())])
