"""Metrics registry, exporters and collectors."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_timing,
    collect_traffic,
)
from repro.parallel.instrumentation import StepTiming, TimingLog
from repro.parallel.message import TrafficLog


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("repro_things_total")
        counter.inc()
        counter.inc(2.0)
        assert counter.value() == 3.0

    def test_labelled_values_are_independent(self):
        counter = Counter("repro_things_total")
        counter.inc(1, mode="ddm")
        counter.inc(5, mode="dlb")
        assert counter.value(mode="ddm") == 1
        assert counter.value(mode="dlb") == 5
        assert counter.value(mode="other") == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)

    def test_rejects_bad_name(self):
        with pytest.raises(ConfigurationError):
            Counter("bad name!")


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("repro_level")
        gauge.set(1.0)
        gauge.set(2.5)
        assert gauge.value() == 2.5

    def test_unset_is_nan(self):
        assert math.isnan(Gauge("g").value())


class TestHistogram:
    def test_observe_counts_and_sums(self):
        hist = Histogram("repro_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)  # lands in the implicit +Inf bucket
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)

    def test_samples_are_cumulative(self):
        hist = Histogram("repro_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        samples = dict((f"{n}{lbl}", v) for n, lbl, v in hist.samples())
        assert samples['repro_seconds_bucket{le="0.1"}'] == 1
        assert samples['repro_seconds_bucket{le="1"}'] == 2
        assert samples['repro_seconds_bucket{le="+Inf"}'] == 3
        assert samples["repro_seconds_count"] == 3

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 0.5))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigurationError):
            registry.gauge("m")

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_runs_total", "runs executed").inc(2, mode="dlb")
        registry.gauge("repro_level").set(1.5)
        text = registry.to_prometheus_text()
        assert "# HELP repro_runs_total runs executed" in text
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{mode="dlb"} 2' in text
        assert "repro_level 1.5" in text

    def test_prometheus_escapes_label_values(self):
        """Exposition-format round trip for backslash, quote and newline.

        The escaped line must parse back to the original value under the
        format's unescaping rules (\\\\ -> \\, \\" -> ", \\n -> newline) —
        the property a Prometheus scraper relies on.
        """
        registry = MetricsRegistry()
        hostile = 'pa\\th "quoted"\nnext'
        registry.counter("repro_runs_total").inc(1, source=hostile)
        text = registry.to_prometheus_text()
        (sample_line,) = [
            line for line in text.splitlines() if line.startswith("repro_runs_total{")
        ]
        escaped = sample_line.split('source="', 1)[1].rsplit('"}', 1)[0]
        # One physical line: the raw newline must not split the sample.
        assert "\n" not in sample_line
        unescaped = (
            escaped.replace("\\\\", "\x00")
            .replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\x00", "\\")
        )
        assert unescaped == hostile

    def test_prometheus_escapes_help_text(self):
        registry = MetricsRegistry()
        registry.gauge("repro_level", "line one\nline \\ two").set(1.0)
        text = registry.to_prometheus_text()
        assert "# HELP repro_level line one\\nline \\\\ two" in text

    def test_write_infers_format(self, tmp_path):
        """Every suffix gets Prometheus text: the JSON-lines export is gone."""
        registry = MetricsRegistry()
        registry.counter("repro_runs_total").inc()
        for name in ("out.prom", "out.jsonl", "out.json"):
            written = registry.write(tmp_path / name)
            assert written.read_text() == registry.to_prometheus_text()
            assert written.read_text().startswith("# TYPE repro_runs_total counter")


class TestCollectors:
    def test_collect_traffic_is_idempotent(self):
        registry = MetricsRegistry()
        traffic = TrafficLog(2)
        traffic.record_bulk(0, 1, n_bytes=100, count=2, tag="halo")
        collect_traffic(registry, traffic, mode="dlb")
        collect_traffic(registry, traffic, mode="dlb")  # must not double-count
        bytes_counter = registry.counter("repro_traffic_bytes_total")
        assert bytes_counter.value(tag="halo", mode="dlb") == 100
        assert registry.counter("repro_traffic_messages_total").value(
            tag="halo", mode="dlb"
        ) == 2

    def test_collect_traffic_advances_with_new_traffic(self):
        registry = MetricsRegistry()
        traffic = TrafficLog(2)
        traffic.record_bulk(0, 1, n_bytes=100, count=1, tag="halo")
        collect_traffic(registry, traffic)
        traffic.record_bulk(1, 0, n_bytes=50, count=1, tag="halo")
        collect_traffic(registry, traffic)
        assert registry.counter("repro_traffic_bytes_total").value(tag="halo") == 150

    def test_collect_timing_histogram_idempotent(self):
        registry = MetricsRegistry()
        log = TimingLog()
        for step in range(4):
            log.append(StepTiming(step=step, tt=1.0, fmax=0.6, fave=0.5,
                                  fmin=0.4))
        collect_timing(registry, log, mode="ddm")
        collect_timing(registry, log, mode="ddm")
        hist = registry.histogram("repro_step_imbalance_seconds")
        assert hist.count(mode="ddm") == 4
        assert registry.gauge("repro_step_time_mean_seconds").value(
            mode="ddm"
        ) == pytest.approx(1.0)

    def test_collect_timing_empty_log_is_noop(self):
        registry = MetricsRegistry()
        collect_timing(registry, TimingLog())
        assert len(registry) == 0
