"""The campaign scheduler: execution, caching, retries, timeouts, metrics."""

import hashlib
import json
import os

import pytest

from repro.campaign import (
    CampaignSpec,
    RunSpec,
    RunStore,
    execute_run,
    executor,
    run_campaign,
)
from repro.campaign.store import canonical_payload
from repro.errors import CampaignError
from repro.obs import MetricsRegistry

_real_pool_worker = executor._pool_worker
#: Which pool child :func:`_crashing_pool_worker` kills: the one running
#: ``seed`` -- every time, or only until the ``marker`` file exists.
_CRASH = {"seed": None, "marker": None}


def _crashing_pool_worker(spec_dict, *args):
    """A pool runner whose child dies like an OOM-killed process would."""
    if spec_dict["seed"] == _CRASH["seed"]:
        marker = _CRASH["marker"]
        if marker is None or not os.path.exists(marker):
            if marker is not None:
                open(marker, "w").close()
            os._exit(1)
    return _real_pool_worker(spec_dict, *args)


def tiny_campaign(n_runs: int = 2, n_steps: int = 40) -> CampaignSpec:
    """A campaign of fast boundary runs (distinct seeds, ~0.1 s each)."""
    runs = tuple(
        RunSpec(m=2, n_pes=9, density=0.256, n_steps=n_steps, seed=100 + i)
        for i in range(n_runs)
    )
    return CampaignSpec(name="tiny", runs=runs)


#: Probe payloads recorded before the probe's divergence oracle and the
#: boundary detector shared one threshold function: it must not move a bit.
PINNED_PROBES = [
    (
        dict(kind='probe', m=2, n_pes=9, density=0.256,
             n_steps=60, seed=3, probe_index=5, probe_hold=10),
        '{"c0_ratio": 0.009259259259259259, "density": 0.256, "diverged": false, '
        '"index": 5, "kind": "probe", "m": 2, "n": 4.153846153846154, "n_pes": 9, "seed": 3}',
    ),
    (
        dict(kind='probe', m=2, n_pes=9, density=0.256,
             n_steps=60, seed=3, probe_index=45, probe_hold=10),
        '{"c0_ratio": 0.26851851851851855, "density": 0.256, "diverged": true, '
        '"index": 45, "kind": "probe", "m": 2, "n": 1.6233421750663128, "n_pes": 9, "seed": 3}',
    ),
    (
        dict(kind='probe', m=3, n_pes=9, density=0.128,
             n_steps=60, seed=7, probe_index=30, probe_hold=8),
        '{"c0_ratio": 0.4883401920438957, "density": 0.128, "diverged": false, '
        '"index": 30, "kind": "probe", "m": 3, "n": 1.334342152953969, "n_pes": 9, "seed": 7}',
    ),
]

#: SHA-256 of the canonical payload of one short boundary run (m = 2, P = 9,
#: 60 configurations, seed 0), recorded while the schedule and the detector
#: still took their constants as arguments: inlining them must not move a bit.
PINNED_BOUNDARY_SHA256 = "64af5205b4f26b4fc90acf6cd7d1c5e0f72317bf1723aa9956426cbe5f2880ba"


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

    @pytest.mark.parametrize("spec, expected", PINNED_PROBES)
    def test_probe_payloads_are_pinned(self, spec, expected):
        payload = execute_run(RunSpec(**spec))
        assert json.dumps(payload, sort_keys=True) == expected

    def test_boundary_payload_is_pinned(self):
        payload = execute_run(RunSpec(m=2, n_pes=9, n_steps=60, seed=0))
        assert payload["diverged"]  # the detector fired
        digest = hashlib.sha256(canonical_payload(payload).encode()).hexdigest()
        assert digest == PINNED_BOUNDARY_SHA256

    def test_preset_payload_has_summary(self):
        payload = execute_run(RunSpec(kind="preset", preset="bench-m2",
                                      balancer="none", n_steps=5, seed=7))
        assert payload["kind"] == "preset"
        assert (payload["mode"], payload["balancer"]) == ("ddm", "none")
        assert "tt_mean" in payload


class TestRealProbe:
    """One real probe at the smallest viable scale: the fixed-level
    divergence check holds at a low level and trips at the top one."""

    def test_low_level_probe_does_not_diverge(self):
        payload = execute_run(RunSpec(kind="probe", m=2, n_pes=9, density=0.256,
                                      n_steps=40, seed=3, probe_index=2,
                                      probe_hold=8))
        assert payload["diverged"] is False

    def test_top_level_probe_diverges(self):
        payload = execute_run(RunSpec(kind="probe", m=2, n_pes=9, density=0.256,
                                      n_steps=40, seed=3, probe_index=39,
                                      probe_hold=8))
        assert payload["diverged"] is True


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

    def test_dead_pool_child_fails_its_run(self, monkeypatch):
        """A child that dies on every attempt ends its run ``failed``; the
        campaign returns and the other run still completes."""
        monkeypatch.setattr(executor, "_pool_worker", _crashing_pool_worker)
        monkeypatch.setitem(_CRASH, "seed", 101)
        campaign = tiny_campaign(n_runs=2)
        with RunStore() as store:
            summary = run_campaign(campaign, store, workers=1, retries=1,
                                   backoff=0.0)
            assert (summary.completed, summary.failed) == (1, 1)
            assert summary.retries == 1
            row = store.get(campaign.runs[1].spec_hash())
            assert row.status == "failed"
            assert "worker process died" in row.error
            assert row.attempts == 2
            assert store.status_counts()["running"] == 0

    def test_dead_pool_child_is_retried_on_a_fresh_pool(self, monkeypatch, tmp_path):
        """A child that dies once breaks its pool, failing the attempts in
        flight there; each is retried on a new pool and the campaign ends
        with every run done."""
        monkeypatch.setattr(executor, "_pool_worker", _crashing_pool_worker)
        monkeypatch.setitem(_CRASH, "seed", 101)
        monkeypatch.setitem(_CRASH, "marker", str(tmp_path / "crashed"))
        campaign = tiny_campaign(n_runs=3)
        with RunStore() as store:
            summary = run_campaign(campaign, store, workers=2, retries=1,
                                   backoff=0.0)
            assert (summary.completed, summary.failed) == (3, 0)
            assert summary.retries >= 1
            assert store.status_counts()["done"] == 3

    def test_failed_run_reexecutes_on_resume(self):
        campaign = tiny_campaign(n_runs=1)
        with RunStore() as store:
            run_campaign(campaign, store, timeout=1e-4, retries=0)
            # Without the too-tight budget the same store recovers.
            recovered = run_campaign(campaign, store)
            assert recovered.completed == 1
            (h,) = campaign.hashes()
            assert store.get(h).status == "done"


class TestCheckpointResume:
    def test_snapshot_of_another_configuration_is_discarded(self, tmp_path, caplog):
        """A snapshot written under another config token -- every snapshot
        is, after an upgrade that changes ``RunConfig`` -- must not fail each
        retry of the automatic resume: it is cleared and the run starts over."""
        import pickle

        from repro import api
        from repro.campaign.executor import _pool_worker
        from repro.config import RunConfig
        from repro.core.checkpoint import CheckpointManager
        from repro.errors import CheckpointError

        spec = RunSpec(kind="preset", preset="quickstart", n_steps=20, seed=4)
        run = RunConfig(steps=20, seed=4)
        api.simulate(
            "quickstart", run=run, stop_after=10,
            checkpoints=api.CheckpointPolicy(directory=tmp_path, every=5),
        )
        newest = CheckpointManager(tmp_path).snapshots()[-1]
        snapshot = pickle.loads(newest.read_bytes())
        assert snapshot["step"] == 10
        snapshot["state"]["config_token"] += "|written by another version"
        newest.write_bytes(pickle.dumps(snapshot))

        # An explicit resume (``repro run --resume``) still refuses ...
        with pytest.raises(CheckpointError, match="different configuration"):
            api.simulate(
                "quickstart", run=run,
                checkpoints=api.CheckpointPolicy(directory=tmp_path, resume=True),
            )
        # ... the automatic one re-executes onto the uninterrupted payload.
        with caplog.at_level("WARNING", logger="repro.campaign"):
            outcome = _pool_worker(spec.to_dict(), None, None, str(tmp_path), 5)
        assert outcome["ok"], outcome["error"]
        assert outcome["payload"] == execute_run(spec)
        assert str(tmp_path) in caplog.text
        assert CheckpointManager(tmp_path).latest_step() == 20


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
            RunSpec(kind="preset", preset="bench-m2", balancer=balancer,
                    n_steps=5, seed=7)
            for balancer in ("none", None)
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
