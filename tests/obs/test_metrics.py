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
    collect_events,
    collect_traffic,
)
from repro.obs.events import EventLog
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

    def run_log(self):
        """A two-PE run's log: three steps and two balancer rounds."""
        log = EventLog()
        log.emit(0, "run.start", mode="dlb", n_pes=2, dlb={"balancer": "permanent"})
        zeros = [0.0, 0.0]
        for index, force in enumerate(([0.6, 0.4], [0.9, 0.3], [0.5, 0.5])):
            if index:
                moves = [{"cell": 0, "src": 0, "dst": 1, "case": "send_own"},
                         {"cell": 3, "src": 1, "dst": 0, "case": "return_borrowed"}]
                log.emit(index, "dlb.decision", moves=moves[:2 * (index - 1)])
            log.emit(index + 1, "step", start=0.0, dlb=0.1, force=force,
                     comm=zeros, other=zeros)
        return log

    def test_collect_events_files_step_and_round_families(self):
        registry = MetricsRegistry()
        collect_events(registry, self.run_log())
        labels = {"mode": "dlb", "balancer": "permanent"}
        assert registry.gauge("repro_step_time_mean_seconds").value(
            **labels
        ) == pytest.approx((0.7 + 1.0 + 0.6) / 3)
        assert registry.gauge("repro_step_time_max_seconds").value(**labels) == 1.0
        assert registry.gauge("repro_step_imbalance_last_seconds").value(**labels) == 0.0
        assert registry.counter("repro_dlb_rounds_total").value(**labels) == 2
        assert registry.counter("repro_dlb_lends_total").value(**labels) == 1
        assert registry.counter("repro_dlb_returns_total").value(**labels) == 1
        assert registry.counter("repro_dlb_idle_rounds_total").value(**labels) == 1
        assert registry.gauge("repro_dlb_moves_per_round_max").value(**labels) == 2

    def test_collect_events_step_histogram_idempotent(self):
        registry = MetricsRegistry()
        log = self.run_log()
        collect_events(registry, log)
        collect_events(registry, log)
        hist = registry.histogram("repro_step_imbalance_seconds")
        labels = {"mode": "dlb", "balancer": "permanent"}
        assert hist.count(**labels) == 3
        assert hist.sum(**labels) == pytest.approx(0.2 + 0.6 + 0.0)
        log.emit(4, "step", start=0.0, dlb=0.1, force=[0.2, 0.1],
                 comm=[0.0, 0.0], other=[0.0, 0.0])
        collect_events(registry, log)
        assert hist.count(**labels) == 4
        assert registry.counter("repro_steps_total").value(**labels) == 4

    def test_collect_events_empty_log_is_noop(self):
        registry = MetricsRegistry()
        log = EventLog()
        log.emit(0, "run.start", mode="ddm", n_pes=2, dlb={"balancer": "none"})
        collect_events(registry, log)
        assert len(registry) == 0

    def test_plain_ddm_log_files_no_round_families(self):
        registry = MetricsRegistry()
        log = EventLog()
        log.emit(0, "run.start", mode="ddm", n_pes=2, dlb={"balancer": "none"})
        log.emit(1, "step", start=0.0, dlb=0.0, force=[0.6, 0.4],
                 comm=[0.0, 0.0], other=[0.0, 0.0])
        collect_events(registry, log)
        text = registry.to_prometheus_text()
        assert "repro_dlb_" not in text
        assert 'repro_step_imbalance_seconds_count{balancer="none",mode="ddm"} 1' in text
