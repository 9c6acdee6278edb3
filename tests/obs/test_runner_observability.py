"""End-to-end observability: runners recording the event log that the
trace, the metrics and the profile are rendered from."""

import json

import pytest

from repro import api
from repro.config import (
    DecompositionConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.core.runner import DrivenLoadRunner, ParallelMDRunner
from repro.obs import (
    MetricsRegistry,
    Observability,
    profile,
    render_trace,
    validate_trace,
    write_trace,
)
from repro.obs.trace import REQUIRED_EVENT_KEYS
from repro.workloads.concentration import ConcentrationSchedule

N_PES = 9

#: The labels of a default (permanent-cell) run's metric series.
DLB = {"mode": "dlb", "balancer": "permanent"}


def small_sim_config() -> SimulationConfig:
    return SimulationConfig(
        md=MDConfig(n_particles=1000, density=0.256),
        decomposition=DecompositionConfig(cells_per_side=6, n_pes=N_PES),
    )


@pytest.fixture
def observed_run():
    obs = Observability.create()
    result = api.simulate(
        small_sim_config(), run=RunConfig(steps=12, seed=3), observability=obs
    )
    return obs, result


def trace_events(obs):
    return render_trace([obs.events])["traceEvents"]


class TestParallelMDRunnerObservability:
    def test_trace_has_one_track_per_pe(self, observed_run):
        obs, _ = observed_run
        spans = [e for e in trace_events(obs) if e["ph"] == "X" and e["pid"] == 0]
        assert {e["tid"] for e in spans} == set(range(N_PES))

    def test_trace_has_phase_spans_and_migrations(self, observed_run):
        obs, result = observed_run
        span_names = {
            e["name"] for e in trace_events(obs)
            if e["ph"] == "X" and e["pid"] == 0
        }
        assert {"force", "halo-comm", "dlb"} <= span_names
        migrations = [
            e for e in trace_events(obs)
            if e["ph"] == "i" and e["name"].startswith("migrate cell")
        ]
        assert len(migrations) == result.total_moves
        for event in migrations:
            assert set(event["args"]) == {"cell", "src", "dst"}

    def test_trace_spans_advance_with_sim_clock(self, observed_run):
        obs, result = observed_run
        spans = [e for e in trace_events(obs) if e["ph"] == "X" and e["pid"] == 0]
        last_end = max(e["ts"] + e["dur"] for e in spans)
        assert last_end <= sum(result.tt) * 1e6 * (1 + 1e-9)

    def test_trace_roundtrips_through_json(self, observed_run, tmp_path):
        obs, _ = observed_run
        path = tmp_path / "trace.json"
        write_trace(path, [obs.events])
        payload = json.loads(path.read_text())
        validate_trace(payload)
        for event in payload["traceEvents"]:
            for key in REQUIRED_EVENT_KEYS:
                assert key in event

    def test_metrics_populated(self, observed_run):
        obs, result = observed_run
        registry = obs.metrics
        assert registry.counter("repro_steps_total").value(**DLB) == 12
        assert registry.counter("repro_cell_migrations_total").value(
            **DLB
        ) == result.total_moves
        assert registry.counter("repro_traffic_total_bytes").value(**DLB) > 0
        assert registry.counter("repro_dlb_rounds_total").value(**DLB) > 0
        assert registry.counter("repro_neighbor_rebuilds_total").value(**DLB) > 0
        assert registry.gauge("repro_step_time_mean_seconds").value(**DLB) > 0

    def test_profiler_saw_host_kernels(self, observed_run):
        obs, _ = observed_run
        stats = profile([obs.events])
        # The default backend searches inside the neighbour-list build, and
        # only there: most steps reuse the list.
        assert "pairs.verlet_build" in stats
        assert (
            stats["pairs.kdtree"]["count"]
            == stats["pairs.verlet_build"]["count"]
            == 1
        )
        assert stats["accounting.account_step"]["count"] == 12

    def test_profile_covers_the_constructors_force_pass(self):
        """Construction evaluates the initial forces -- at this length the
        run's one pair search -- so the profile counts one force pass more
        than there are steps, and the search itself."""
        obs = Observability.create(metrics=False)
        api.simulate(
            small_sim_config(), run=RunConfig(steps=5, seed=3), observability=obs
        )
        stats = profile([obs.events])
        assert stats["force.accumulate"]["count"] == 5 + 1
        assert any(name.startswith("pairs.") for name in stats)

    def test_disabled_observability_records_nothing(self):
        obs = Observability.create()
        runner = ParallelMDRunner(small_sim_config(), RunConfig(steps=3, seed=1))
        runner.run()  # no bundle attached, nothing activated
        assert len(obs.events) == 0 and obs.events.scopes == []
        assert len(obs.metrics) == 0
        assert runner.observability is None

    def test_metrics_only_bundle_keeps_the_recorder_off(self):
        # A registry without an event log: every event hook stays a None
        # check, and the stats collectors still fill the registry.
        obs = Observability(metrics=MetricsRegistry())
        runner = ParallelMDRunner(
            small_sim_config(), RunConfig(steps=3, seed=1), observability=obs
        )
        runner.run()
        assert runner.events is None
        assert obs.metrics.counter("repro_traffic_total_bytes").value(**DLB) > 0

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
        runner = DrivenLoadRunner(config, observability=obs)
        with obs.activate():
            runner.run(schedule)
        spans = [e for e in trace_events(obs) if e["ph"] == "X" and e["pid"] == 0]
        assert {e["tid"] for e in spans} == set(range(N_PES))
        assert obs.metrics.counter("repro_steps_total").value(**DLB) == 10
        assert obs.metrics.counter("repro_dlb_rounds_total").value(**DLB) > 0


def sample(text: str, name: str) -> float:
    """The value of the permanent-cell run's ``name`` series in ``text``."""
    prefix = f'{name}{{balancer="permanent",mode="dlb"}} '
    (line,) = [line for line in text.splitlines() if line.startswith(prefix)]
    return float(line[len(prefix):])


class TestMetricsCoverEveryStep:
    """Every run-metric family is folded from the event log, which records
    every step and round whatever the result's ``record_interval``."""

    def test_families_agree_mid_run_and_at_the_end(self, tmp_path):
        path = tmp_path / "m.prom"
        obs = Observability.create()
        obs.metrics_path, obs.metrics_every = str(path), 25
        api.simulate(
            "quickstart", observability=obs,
            run=RunConfig(steps=40, seed=3, record_interval=20, balancer="permanent"),
        )
        records = obs.events.records
        step_at = [i for i, r in enumerate(records) if r["kind"] == "step"]
        before_flush = records[:step_at[24]]  # the flush after step 25
        flushed = path.read_text()
        assert sample(flushed, "repro_steps_total") == 25
        assert sample(flushed, "repro_step_imbalance_seconds_count") == 25
        assert sample(flushed, "repro_dlb_rounds_total") == sum(
            r["kind"] == "dlb.decision" for r in before_flush
        )
        final = obs.metrics.to_prometheus_text()
        assert sample(final, "repro_steps_total") == 40
        assert sample(final, "repro_step_imbalance_seconds_count") == 40
        decisions = [r for r in records if r["kind"] == "dlb.decision"]
        assert sample(final, "repro_dlb_rounds_total") == len(decisions) == 39
        moved = sum(len(r["moves"]) for r in decisions)
        assert sample(final, "repro_dlb_lends_total") + sample(
            final, "repro_dlb_returns_total"
        ) == moved == sample(final, "repro_cell_migrations_total")


class TestEngineWorkerScopes:
    def test_workers_record_while_the_main_process_records(self):
        """Worker passes join the run's log under ``worker<w>.`` names,
        exactly one per recorded pass of the main process (the
        constructor's initial pass and one per step)."""
        obs = Observability.create(metrics=False)
        api.simulate(
            small_sim_config(), run=RunConfig(steps=3, seed=3),
            engine="multiprocess", engine_workers=2, observability=obs,
        )
        stats = profile([obs.events])
        assert stats["engine.force_pass"]["count"] == 3 + 1
        for w in (0, 1):
            assert stats[f"worker{w}.engine.worker.force_pass"]["count"] == 3 + 1

    def test_workers_record_nothing_unless_the_main_process_records(self):
        from repro.core.runner import ParallelMDRunner
        from repro.engine import create_engine

        obs = Observability.create(metrics=False)
        engine = create_engine("multiprocess", workers=2)
        try:
            runner = ParallelMDRunner(
                small_sim_config(), RunConfig(steps=2, seed=3),
                observability=obs, engine=engine,
            )
            runner.run()  # the bundle is never activated
        finally:
            engine.close()
        assert obs.events.scopes == []
