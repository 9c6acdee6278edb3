"""The campaign scheduler: execution, caching, retries, timeouts, metrics."""

import pytest

from repro.campaign import (
    CampaignSpec,
    RunSpec,
    RunStore,
    execute_run,
    run_campaign,
)
from repro.errors import CampaignError
from repro.obs import MetricsRegistry


def tiny_campaign(n_runs: int = 2, n_steps: int = 40) -> CampaignSpec:
    """A campaign of fast boundary runs (distinct seeds, ~0.1 s each)."""
    runs = tuple(
        RunSpec(m=2, n_pes=9, density=0.256, n_steps=n_steps, seed=100 + i)
        for i in range(n_runs)
    )
    return CampaignSpec(name="tiny", runs=runs)


class TestExecuteRun:
    def test_boundary_payload_shape(self):
        payload = execute_run(RunSpec(m=2, n_pes=9, density=0.256,
                                      n_steps=50, seed=3))
        assert payload["kind"] == "boundary"
        assert payload["seed"] == 3
        assert isinstance(payload["diverged"], bool)
        if payload["diverged"]:
            assert payload["n"] > 0
            assert 0 < payload["c0_ratio"] <= 1
            assert payload["theory"] is not None

    def test_probe_payload_shape(self):
        payload = execute_run(RunSpec(kind="probe", m=2, n_pes=9, density=0.256,
                                      n_steps=40, seed=3, probe_index=5,
                                      probe_hold=10))
        assert payload["kind"] == "probe"
        assert payload["index"] == 5
        assert isinstance(payload["diverged"], bool)

    def test_preset_payload_has_summary(self):
        payload = execute_run(RunSpec(kind="preset", preset="bench-m2",
                                      mode="ddm", n_steps=5, seed=7))
        assert payload["kind"] == "preset"
        assert "tt_mean" in payload


class TestSerialExecution:
    def test_all_runs_complete(self):
        campaign = tiny_campaign()
        with RunStore() as store:
            summary = run_campaign(campaign, store)
            assert summary.completed == len(campaign)
            assert summary.failed == 0
            assert not summary.interrupted
            for run_hash in campaign.hashes():
                assert store.get(run_hash).status == "done"

    def test_second_invocation_is_all_cache_hits(self):
        campaign = tiny_campaign()
        with RunStore() as store:
            run_campaign(campaign, store)
            again = run_campaign(campaign, store)
            assert again.cached == len(campaign)
            assert again.completed == 0

    def test_determinism_same_spec_same_payload(self):
        campaign = tiny_campaign(n_runs=1)
        with RunStore() as first, RunStore() as second:
            run_campaign(campaign, first)
            run_campaign(campaign, second)
            (h,) = campaign.hashes()
            assert first.get(h).payload_json == second.get(h).payload_json

    def test_stop_after_interrupts_and_resumes(self):
        campaign = tiny_campaign(n_runs=3)
        with RunStore() as store:
            partial = run_campaign(campaign, store, stop_after=1)
            assert partial.completed == 1
            assert partial.interrupted
            assert partial.cancelled == 2
            resumed = run_campaign(campaign, store)
            assert resumed.cached == 1
            assert resumed.completed == 2

    def test_progress_events_in_order(self):
        campaign = tiny_campaign(n_runs=1)
        events = []
        with RunStore() as store:
            run_campaign(campaign, store,
                         progress=lambda e, h, s: events.append(e))
        assert events == ["start", "done"]

    def test_rejects_negative_retries(self):
        with RunStore() as store:
            with pytest.raises(CampaignError):
                run_campaign(tiny_campaign(), store, retries=-1)


class TestFailureHandling:
    def test_timeout_fails_run_after_retries(self):
        campaign = tiny_campaign(n_runs=1)
        with RunStore() as store:
            summary = run_campaign(campaign, store, timeout=1e-4,
                                   retries=2, backoff=0.0)
            assert summary.failed == 1
            assert summary.retries == 2
            (h,) = campaign.hashes()
            row = store.get(h)
            assert row.status == "failed"
            assert "time budget" in row.error
            assert row.attempts == 3

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
    def test_timeout_survives_landing_in_a_finalizer(self, monkeypatch):
        """An alarm that fires inside ``__del__`` is dropped by the interpreter
        ("Exception ignored in ..."); the budget must still end the run."""
        import time

        from repro.campaign import executor

        class SlowFinalizer:
            def __del__(self):
                time.sleep(0.3)  # the 0.05 s alarm lands in here

        def run_forever(spec, *args):
            SlowFinalizer()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                pass
            return {"finished": True}

        monkeypatch.setattr(executor, "execute_run", run_forever)
        started = time.monotonic()
        with pytest.raises(CampaignError, match="time budget"):
            executor._execute_with_timeout(RunSpec(seed=1), 0.05)
        assert time.monotonic() - started < 2.0

    def test_failed_run_reexecutes_on_resume(self):
        campaign = tiny_campaign(n_runs=1)
        with RunStore() as store:
            run_campaign(campaign, store, timeout=1e-4, retries=0)
            # Without the too-tight budget the same store recovers.
            recovered = run_campaign(campaign, store)
            assert recovered.completed == 1
            (h,) = campaign.hashes()
            assert store.get(h).status == "done"


class TestMetrics:
    def test_counters_and_histogram_filed(self):
        campaign = tiny_campaign(n_runs=1)
        registry = MetricsRegistry()
        with RunStore() as store:
            run_campaign(campaign, store, metrics=registry)
            run_campaign(campaign, store, metrics=registry)
        counter = registry.counter("repro_campaign_runs_total")
        assert counter.value(campaign="tiny", status="completed") == 1
        assert counter.value(campaign="tiny", status="cached") == 1
        histogram = registry.histogram("repro_campaign_run_duration_seconds")
        names = [name for name, _, _ in histogram.samples()]
        assert "repro_campaign_run_duration_seconds_count" in names


class TestParallelExecution:
    def test_pool_matches_serial_byte_for_byte(self):
        campaign = tiny_campaign(n_runs=2)
        with RunStore() as serial, RunStore() as parallel:
            run_campaign(campaign, serial, workers=1)
            summary = run_campaign(campaign, parallel, workers=2)
            assert summary.completed == 2
            for h in campaign.hashes():
                assert serial.get(h).payload_json == parallel.get(h).payload_json

    def test_pool_stop_after_leaves_resumable_store(self, tmp_path):
        campaign = tiny_campaign(n_runs=4)
        store = RunStore(tmp_path)
        partial = run_campaign(campaign, store, workers=2, stop_after=2)
        assert partial.interrupted
        assert partial.completed >= 2
        store.close()
        # A fresh process (fresh store handle) resumes without recomputation.
        store = RunStore(tmp_path)
        resumed = run_campaign(campaign, store, workers=2)
        assert resumed.cached == partial.completed
        assert resumed.completed + resumed.cached == len(campaign)
        store.close()


class TestFlightRecorderPassthrough:
    def preset_campaign(self) -> CampaignSpec:
        runs = tuple(
            RunSpec(kind="preset", preset="bench-m2", mode=mode,
                    n_steps=5, seed=7)
            for mode in ("ddm", "dlb")
        )
        return CampaignSpec(name="tiny-preset", runs=runs)

    def test_events_dir_records_each_preset_run(self, tmp_path):
        from repro.obs import read_events, validate_events

        campaign = self.preset_campaign()
        with RunStore() as store:
            run_campaign(campaign, store, events_dir=str(tmp_path))
        for run_hash in campaign.hashes():
            path = tmp_path / f"{run_hash}.events.jsonl"
            assert path.exists()
            records = read_events(path)
            validate_events(records)
            assert records[0]["kind"] == "run.start"
            assert records[-1]["kind"] == "run.end"
            assert (tmp_path / f"{run_hash}.events.host.jsonl").exists()

    def test_boundary_runs_record_nothing(self, tmp_path):
        campaign = tiny_campaign(n_runs=1)
        with RunStore() as store:
            run_campaign(campaign, store, events_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_cache_hits_do_not_rewrite(self, tmp_path):
        campaign = self.preset_campaign()
        with RunStore() as store:
            run_campaign(campaign, store, events_dir=str(tmp_path))
            before = {
                p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
            }
            again = run_campaign(campaign, store, events_dir=str(tmp_path))
            assert again.cached == len(campaign)
        after = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        assert after == before
