"""End-to-end observability: runners feeding trace, metrics and profiler."""

import json

import pytest

from repro.config import (
    DecompositionConfig,
    DLBConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.core.runner import DrivenLoadRunner, ParallelMDRunner
from repro.obs import Observability, validate_trace
from repro.obs.trace import REQUIRED_EVENT_KEYS
from repro.workloads.concentration import ConcentrationSchedule

N_PES = 9


def small_sim_config(dlb_enabled: bool = True) -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=N_PES),
        dlb=DLBConfig(enabled=dlb_enabled),
    )


@pytest.fixture
def observed_run():
    obs = Observability.create()
    # Construction evaluates the initial forces -- the run's one pair search
    # at this length -- so the profile has to cover it.
    with obs.activate():
        runner = ParallelMDRunner(
            small_sim_config(True),
            RunConfig(steps=12, seed=3),
            observability=obs,
        )
        result = runner.run()
    return obs, runner, result


class TestParallelMDRunnerObservability:
    def test_trace_has_one_track_per_pe(self, observed_run):
        obs, _, _ = observed_run
        spans = [e for e in obs.trace.events if e["ph"] == "X" and e["pid"] == 0]
        assert {e["tid"] for e in spans} == set(range(N_PES))

    def test_trace_has_phase_spans_and_migrations(self, observed_run):
        obs, _, result = observed_run
        span_names = {
            e["name"] for e in obs.trace.events
            if e["ph"] == "X" and e["pid"] == 0
        }
        assert {"force", "halo-comm", "dlb"} <= span_names
        migrations = [
            e for e in obs.trace.events
            if e["ph"] == "i" and e["name"].startswith("migrate cell")
        ]
        assert len(migrations) == result.total_moves
        for event in migrations:
            assert set(event["args"]) == {"cell", "src", "dst"}

    def test_trace_spans_advance_with_sim_clock(self, observed_run):
        obs, runner, _ = observed_run
        spans = [e for e in obs.trace.events if e["ph"] == "X" and e["pid"] == 0]
        last_end = max(e["ts"] + e["dur"] for e in spans)
        assert last_end <= runner.sim_time * 1e6 * (1 + 1e-9)

    def test_trace_roundtrips_through_json(self, observed_run, tmp_path):
        obs, _, _ = observed_run
        path = obs.trace.write(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        validate_trace(payload)
        for event in payload["traceEvents"]:
            for key in REQUIRED_EVENT_KEYS:
                assert key in event

    def test_metrics_populated(self, observed_run):
        obs, _, result = observed_run
        registry = obs.metrics
        assert registry.counter("repro_steps_total").value(mode="dlb") == 12
        assert registry.counter("repro_cell_migrations_total").value(
            mode="dlb"
        ) == result.total_moves
        assert registry.counter("repro_traffic_total_bytes").value(mode="dlb") > 0
        assert registry.counter("repro_dlb_rounds_total").value(mode="dlb") > 0
        assert registry.counter("repro_neighbor_rebuilds_total").value(mode="dlb") > 0
        assert registry.gauge("repro_step_time_mean_seconds").value(mode="dlb") > 0

    def test_profiler_saw_host_kernels(self, observed_run):
        obs, _, _ = observed_run
        # The default backend searches inside the neighbour-list build, and
        # only there: most steps reuse the list.
        assert "pairs.verlet_build" in obs.profiler.stats
        assert (
            obs.profiler.stats["pairs.kdtree"].count
            == obs.profiler.stats["pairs.verlet_build"].count
            == 1
        )
        assert "accounting.account_step" in obs.profiler.stats

    def test_disabled_observability_records_nothing(self):
        obs = Observability.create()
        runner = ParallelMDRunner(small_sim_config(), RunConfig(steps=3, seed=1))
        runner.run()  # no bundle attached, nothing activated
        assert len(obs.trace) == 0
        assert len(obs.metrics) == 0
        assert runner.observability is None

    def test_observability_does_not_change_physics(self):
        plain = ParallelMDRunner(small_sim_config(), RunConfig(steps=5, seed=3)).run()
        obs = Observability.create()
        runner = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=5, seed=3), observability=obs
        )
        with obs.activate():
            observed = runner.run()
        assert plain.tt == pytest.approx(observed.tt)


class TestDrivenLoadRunnerObservability:
    def test_sweep_feeds_trace_and_metrics(self):
        obs = Observability.create()
        config = small_sim_config()
        schedule = ConcentrationSchedule(
            n_particles=1000, box_length=config.md.box_length, n_steps=10, seed=1
        )
        runner = DrivenLoadRunner(config, observability=obs, trace_pid=2)
        with obs.activate():
            runner.run(schedule)
        spans = [e for e in obs.trace.events if e["ph"] == "X" and e["pid"] == 2]
        assert {e["tid"] for e in spans} == set(range(N_PES))
        assert obs.metrics.counter("repro_steps_total").value(mode="dlb") == 10
        assert obs.metrics.counter("repro_dlb_rounds_total").value(mode="dlb") > 0
