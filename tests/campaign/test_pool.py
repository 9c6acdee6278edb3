"""The in-process batch scheduler: runs held elsewhere, failing runs,
reclaimed leases and the reaper's scope."""

import threading
import time
from collections import Counter

import repro.campaign.executor as executor
from repro.campaign import CampaignSpec, RunSpec, RunStore, run_campaign
from repro.campaign.pool import Batch
from repro.config import from_dict


def expired_claim(store_dir, spec, campaign, owner="dead-1-x"):
    """Register ``spec`` and leave it ``running`` under an already-expired lease."""
    with RunStore(store_dir, instance_id=owner) as dead:
        run_hash = dead.register(spec, campaign)
        assert dead.acquire_lease(run_hash, ttl=0.01)
    time.sleep(0.05)
    return run_hash


class SlowRunner:
    """A thread-pool runner that takes ``seconds`` per run and counts them."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.executions = Counter()
        self._lock = threading.Lock()

    def __call__(self, spec_dict, timeout, events_path):
        with self._lock:
            self.executions[from_dict(RunSpec, spec_dict).spec_hash()] += 1
        time.sleep(self.seconds)
        return {"ok": True, "payload": {"seed": spec_dict["seed"]},
                "duration_s": self.seconds}


class TestHeldAndFailingRuns:
    def test_sibling_held_run_is_served_not_executed(self, tmp_path):
        """A run another store owner holds is waited for, never run twice;
        the payload served is the one that owner commits."""
        spec = RunSpec(m=2, n_pes=9, density=0.256, n_steps=40, seed=730)
        sibling = RunStore(tmp_path, instance_id="sibling-1-x")
        run_hash = sibling.register(spec, "held")
        lease = sibling.acquire_lease(run_hash, ttl=60.0)
        runner = SlowRunner(0.0)
        served = {}

        def drain():
            with RunStore(tmp_path) as store:
                Batch(store, {run_hash: spec}, runner=runner, threads=True,
                      retries=0).run()
                served["payload"] = store.get(run_hash).payload

        batch = threading.Thread(target=drain)
        batch.start()
        time.sleep(0.5)  # the batch is now watching the sibling's lease
        assert sibling.complete(
            run_hash, {"kind": "boundary", "from": "sibling"}, 0.1, lease=lease
        )
        batch.join(timeout=30)
        assert not batch.is_alive()
        assert runner.executions == Counter()  # not executed here
        assert served["payload"]["from"] == "sibling"
        assert sibling.get(run_hash).attempts == 1
        sibling.close()

    def test_raising_run_ends_failed_and_unowned(self, monkeypatch):
        def explode(spec, *args):
            raise RuntimeError("run exploded")

        monkeypatch.setattr(executor, "execute_run", explode)
        spec = RunSpec(m=2, n_pes=9, density=0.256, n_steps=40, seed=731)
        with RunStore() as store:
            run_hash = store.register(spec, "explodes")
            Batch(store, {run_hash: spec}, runner=executor._pool_worker,
                  threads=True, retries=0).run()
            row = store.get(run_hash)
            assert row.status == "failed"
            assert "run exploded" in row.error
            assert row.owner is None


class TestReclaimedRunWhileQueued:
    def test_lease_is_renewed_until_a_worker_runs_it(self, tmp_path):
        """A run reclaimed at startup waits behind runs that together last
        several TTLs: its lease is renewed meanwhile, so it is reclaimed once
        and executed once."""
        specs = [RunSpec(seed=700 + i) for i in range(4)]
        stranded = expired_claim(tmp_path, specs[-1], "queued")
        runner = SlowRunner(0.5)
        with RunStore(tmp_path) as store:
            runs = {store.register(spec, "queued"): spec for spec in specs}
            batch = Batch(store, runs, runner=runner, threads=True, workers=1,
                          retries=0, lease_ttl=0.6)
            batch.run()
            assert not batch.unsettled
            row = store.get(stranded)
            assert row.status == "done"
            assert row.attempts == 2
            assert row.failed_owners == ("dead-1-x",)
        assert runner.executions == Counter(list(runs))  # each exactly once

    def test_drain_releases_a_reclaimed_run_still_queued(self, tmp_path):
        """Stopping early hands a reclaimed-but-unstarted run back to
        ``pending`` at once instead of leaving it ``running`` for a TTL."""
        specs = [RunSpec(seed=710 + i) for i in range(2)]
        stranded = expired_claim(tmp_path, specs[-1], "queued")
        with RunStore(tmp_path) as store:
            runs = {store.register(spec, "queued"): spec for spec in specs}
            batch = Batch(store, runs, stop_after=1, runner=SlowRunner(0.2),
                          threads=True, workers=1, retries=0)
            batch.run()
            assert batch.completed == 1
            row = store.get(stranded)
            assert row.status == "pending"
            assert row.owner is None


class TestReaperScope:
    def test_campaign_leaves_another_campaigns_expired_lease_alone(self, tmp_path):
        foreign_spec = RunSpec(m=2, n_pes=9, density=0.256, n_steps=40, seed=720)
        foreign = expired_claim(tmp_path, foreign_spec, "other")
        campaign = CampaignSpec(name="mine", runs=(
            RunSpec(m=2, n_pes=9, density=0.256, n_steps=40, seed=721),
        ))
        with RunStore(tmp_path) as store:
            summary = run_campaign(campaign, store, workers=1)
            assert summary.completed == 1
            row = store.get(foreign)
            assert row.status == "running"
            assert row.owner == "dead-1-x"
            assert row.attempts == 1
            assert row.failed_owners == ()
