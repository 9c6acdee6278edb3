"""Host scope records: the event log's wall-clock channel and its views
(the ``--profile`` table, the host trace track, the kernel histogram)."""

import pytest

from repro.obs import Observability, collect_events
from repro.obs.events import (
    EventLog,
    _NULL_SCOPE,
    active,
    profile,
    recording,
    scope,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import HOST_PID, render_trace
from repro.reporting import profile_table


@pytest.fixture(autouse=True)
def _no_recording_log():
    assert active() is None
    yield
    assert active() is None


def timed(log: EventLog, name: str) -> None:
    with recording(log), scope(name):
        pass


class TestProfiler:
    def test_timer_accumulates_stats(self):
        log = EventLog()
        timed(log, "work")
        timed(log, "work")
        stat = profile([log])["work"]
        assert stat["count"] == 2
        assert stat["total_s"] >= stat["max_s"] >= 0.0
        assert stat["mean_s"] == pytest.approx(stat["total_s"] / 2)

    def test_as_dict_sorted_by_total(self):
        log = EventLog()
        log.scopes += [("fast", 0.0, 0.001), ("slow", 0.0, 1.0)]
        assert list(profile([log])) == ["slow", "fast"]
        assert profile([log])["slow"]["count"] == 1

    def test_record_feeds_registry_histogram(self):
        registry = MetricsRegistry()
        log = EventLog()
        log.emit(0, "run.start", mode="dlb", n_pes=1, dlb={"balancer": "permanent"})
        log.scopes.append(("kernel", 0.0, 0.002))
        collect_events(registry, log)
        collect_events(registry, log)  # refilling never double-counts
        hist = registry.histogram("repro_host_kernel_seconds")
        labels = {"kernel": "kernel", "mode": "dlb", "balancer": "permanent"}
        assert hist.count(**labels) == 1
        assert hist.sum(**labels) == pytest.approx(0.002)

    def test_record_emits_host_trace_span(self):
        log = EventLog()
        log.scopes.append(("kernel", log.epoch + 1.0, 0.5))
        spans = [e for e in render_trace([log])["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["pid"] == HOST_PID
        assert spans[0]["ts"] == pytest.approx(1.0e6)
        assert spans[0]["dur"] == pytest.approx(0.5e6)

    def test_table_lists_scopes(self):
        log = EventLog()
        log.scopes.append(("kernel", 0.0, 0.1))
        assert "kernel" in profile_table([log])


class TestStateMerging:
    """The profile aggregates scope records over any number of logs, and an
    engine worker's records join the main process's log under a name prefix."""

    def log_with(self, samples: dict[str, list[float]]) -> EventLog:
        log = EventLog()
        for name, values in samples.items():
            log.scopes += [(name, 0.0, value) for value in values]
        return log

    def test_empty_state_merge_is_a_noop(self):
        log = self.log_with({"a": [1.0]})
        assert profile([log, EventLog()]) == profile([log])
        assert profile([log])["a"]["count"] == 1

    def test_merge_into_empty_profiler(self):
        stat = profile([EventLog(), self.log_with({"a": [1.0, 3.0]})])["a"]
        assert stat["count"] == 2
        assert stat["total_s"] == pytest.approx(4.0)
        assert stat["max_s"] == pytest.approx(3.0)

    def test_disjoint_scope_sets_union(self):
        merged = profile([self.log_with({"a": [1.0]}), self.log_with({"b": [2.0]})])
        assert set(merged) == {"a", "b"}
        assert merged["a"]["count"] == 1 and merged["b"]["count"] == 1

    def test_overlapping_scopes_accumulate(self):
        merged = profile([self.log_with({"a": [1.0]}), self.log_with({"a": [3.0]})])
        assert merged["a"]["count"] == 2
        assert merged["a"]["total_s"] == pytest.approx(4.0)
        assert merged["a"]["max_s"] == pytest.approx(3.0)

    def test_repeated_merge_accumulates_additively(self):
        """Aggregation is additive: the same log twice doubles the counts
        (the CLI passes each run's log exactly once)."""
        log = self.log_with({"a": [1.0]})
        stat = profile([log, log])["a"]
        assert stat["count"] == 2
        assert stat["total_s"] == pytest.approx(2.0)
        assert stat["max_s"] == pytest.approx(1.0)

    def test_prefix_namespaces_worker_scopes(self):
        from repro.engine.multiprocess import MultiprocessEngine

        main = self.log_with({"kernel.half": [1.0]})
        engine = MultiprocessEngine(workers=1)
        engine.attach_observability(Observability(events=main))
        engine._merge_worker_scopes(0, [("kernel.half", 0.0, 2.0)])
        merged = profile([main])
        assert set(merged) == {"kernel.half", "worker0.kernel.half"}
        assert merged["kernel.half"]["total_s"] == pytest.approx(1.0)


class TestGlobalScope:
    def test_scope_is_null_when_disabled(self):
        assert active() is None
        assert scope("anything") is _NULL_SCOPE

    def test_enable_routes_scopes(self):
        log = EventLog()
        with recording(log):
            with scope("work"):
                pass
        with scope("work"):
            pass
        assert [name for name, _, _ in log.scopes] == ["work"]  # once only


class TestObservabilityBundle:
    def test_create_cross_wires(self):
        obs = Observability.create()
        assert isinstance(obs.events, EventLog)
        assert isinstance(obs.metrics, MetricsRegistry)
        assert Observability.create(metrics=False).metrics is None

    def test_activate_installs_and_restores(self):
        obs = Observability.create(metrics=False)
        with obs.activate():
            assert active() is obs.events
        assert active() is None

    def test_activate_restores_previous(self):
        outer = EventLog()
        obs = Observability.create(metrics=False)
        with recording(outer):
            with obs.activate():
                assert active() is obs.events
            assert active() is outer

    def test_activate_without_profiler_is_noop(self):
        obs = Observability(events=None)
        with obs.activate():
            assert active() is None
