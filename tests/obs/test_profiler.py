"""Scoped wall-clock profiler."""

import pytest

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import (
    Profiler,
    _NULL_SCOPE,
    active,
    disable,
    enable,
    scope,
)
from repro.obs.trace import TraceRecorder


@pytest.fixture(autouse=True)
def _clean_global_profiler():
    disable()
    yield
    disable()


class TestProfiler:
    def test_timer_accumulates_stats(self):
        profiler = Profiler()
        with profiler.timer("work"):
            pass
        with profiler.timer("work"):
            pass
        stat = profiler.stats["work"]
        assert stat.count == 2
        assert stat.total >= stat.max >= stat.min >= 0.0
        assert stat.mean == pytest.approx(stat.total / 2)

    def test_as_dict_sorted_by_total(self):
        profiler = Profiler()
        profiler.record("fast", 0.001)
        profiler.record("slow", 1.0)
        assert list(profiler.as_dict()) == ["slow", "fast"]
        assert profiler.as_dict()["slow"]["count"] == 1

    def test_record_feeds_registry_histogram(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry=registry)
        profiler.record("kernel", 0.002)
        hist = registry.histogram("repro_host_kernel_seconds")
        assert hist.count(kernel="kernel") == 1
        assert hist.sum(kernel="kernel") == pytest.approx(0.002)

    def test_record_emits_host_trace_span(self):
        trace = TraceRecorder()
        profiler = Profiler(trace=trace)
        profiler.record("kernel", 0.5, start=profiler.epoch + 1.0)
        spans = [e for e in trace.events if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["pid"] == TraceRecorder.HOST_PID
        assert spans[0]["ts"] == pytest.approx(1.0e6)
        assert spans[0]["dur"] == pytest.approx(0.5e6)

    def test_table_lists_scopes(self):
        profiler = Profiler()
        profiler.record("kernel", 0.1)
        assert "kernel" in profiler.table()


class TestStateMerging:
    def profiler_with(self, samples: dict[str, list[float]]) -> Profiler:
        profiler = Profiler()
        for name, values in samples.items():
            for value in values:
                profiler.record(name, value)
        return profiler

    def test_empty_state_merge_is_a_noop(self):
        profiler = self.profiler_with({"a": [1.0]})
        profiler.merge_state({})
        assert set(profiler.stats) == {"a"}
        assert profiler.stats["a"].count == 1

    def test_merge_into_empty_profiler(self):
        source = self.profiler_with({"a": [1.0, 3.0]})
        target = Profiler()
        target.merge_state(source.state_dict())
        assert target.stats["a"].count == 2
        assert target.stats["a"].total == pytest.approx(4.0)
        assert target.stats["a"].min == pytest.approx(1.0)
        assert target.stats["a"].max == pytest.approx(3.0)

    def test_disjoint_scope_sets_union(self):
        target = self.profiler_with({"a": [1.0]})
        source = self.profiler_with({"b": [2.0]})
        target.merge_state(source.state_dict())
        assert set(target.stats) == {"a", "b"}
        assert target.stats["a"].count == 1 and target.stats["b"].count == 1

    def test_overlapping_scopes_accumulate(self):
        target = self.profiler_with({"a": [1.0]})
        source = self.profiler_with({"a": [3.0]})
        target.merge_state(source.state_dict())
        stat = target.stats["a"]
        assert stat.count == 2
        assert stat.total == pytest.approx(4.0)
        assert (stat.min, stat.max) == (pytest.approx(1.0), pytest.approx(3.0))

    def test_repeated_merge_accumulates_additively(self):
        """merge_state is additive by design: merging the same snapshot twice
        doubles the counts (the engine merges each worker exactly once)."""
        target = Profiler()
        state = self.profiler_with({"a": [1.0]}).state_dict()
        target.merge_state(state)
        target.merge_state(state)
        stat = target.stats["a"]
        assert stat.count == 2
        assert stat.total == pytest.approx(2.0)
        # min/max are idempotent even though count/total are not.
        assert (stat.min, stat.max) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_prefix_namespaces_worker_scopes(self):
        target = self.profiler_with({"kernel.half": [1.0]})
        source = self.profiler_with({"kernel.half": [2.0]})
        target.merge_state(source.state_dict(), prefix="worker0.")
        assert set(target.stats) == {"kernel.half", "worker0.kernel.half"}
        assert target.stats["kernel.half"].total == pytest.approx(1.0)

    def test_zero_count_scope_round_trips_infinite_min(self):
        """A never-fired stat snapshots min=inf and merges without poisoning."""
        from repro.obs.profiler import TimerStat

        profiler = Profiler()
        profiler.stats["idle"] = TimerStat()
        state = profiler.state_dict()
        assert state["idle"]["min"] == float("inf")
        target = self.profiler_with({"idle": [2.0]})
        target.merge_state(state)
        stat = target.stats["idle"]
        assert stat.count == 1
        assert stat.min == pytest.approx(2.0)  # inf never wins the min


class TestGlobalScope:
    def test_scope_is_null_when_disabled(self):
        assert active() is None
        assert scope("anything") is _NULL_SCOPE

    def test_enable_routes_scopes(self):
        profiler = enable()
        with scope("work"):
            pass
        assert profiler.stats["work"].count == 1
        disable()
        with scope("work"):
            pass
        assert profiler.stats["work"].count == 1  # unchanged after disable


class TestObservabilityBundle:
    def test_create_cross_wires(self):
        obs = Observability.create()
        assert obs.profiler.trace is obs.trace
        assert obs.profiler.registry is obs.metrics

    def test_activate_installs_and_restores(self):
        obs = Observability.create(trace=False, metrics=False)
        assert active() is None
        with obs.activate():
            assert active() is obs.profiler
        assert active() is None

    def test_activate_restores_previous(self):
        outer = enable()
        obs = Observability.create(trace=False, metrics=False)
        with obs.activate():
            assert active() is obs.profiler
        assert active() is outer

    def test_activate_without_profiler_is_noop(self):
        obs = Observability(profiler=None)
        with obs.activate():
            assert active() is None
