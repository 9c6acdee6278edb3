"""Store-level lease semantics: CAS ownership, expiry, quarantine, eviction.

These tests drive the :class:`~repro.campaign.store.RunStore` lease API with
injected clocks, so expiry, clock skew and paused-instance scenarios are
deterministic — no sleeps. The invariant under test everywhere: a lease
holder that lost ownership can never renew, demote, or commit.
"""

import json
import sqlite3
import time

import pytest

from repro.campaign.spec import RunSpec
from repro.campaign.store import (
    DB_NAME,
    STORE_SCHEMA,
    Lease,
    RunStore,
    default_instance_id,
)
from repro.errors import CampaignError

from ..helpers import leave_unmonitored_claim


@pytest.fixture
def spec():
    return RunSpec(seed=1)


class FakeClock:
    """A manually-advanced lease clock."""

    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def two_stores(path, **kwargs):
    """Two store handles on one database (two instances on one host)."""
    a = RunStore(path, instance_id="host-1-aaaaaa", **kwargs)
    b = RunStore(path, instance_id="host-2-bbbbbb", **kwargs)
    return a, b


class TestAcquire:
    def test_lease_carries_owner_attempt_deadline(self, tmp_path, spec):
        clock = FakeClock(100.0)
        with RunStore(tmp_path, clock=clock, instance_id="host-9-abc") as store:
            run_hash = store.register(spec, "c")
            lease = store.acquire_lease(run_hash, ttl=5.0)
            assert lease == Lease(run_hash, "host-9-abc", 1, 105.0, 5.0)
            assert store.get(run_hash).status == "running"
            assert store.get(run_hash).owner == "host-9-abc"

    def test_only_one_of_two_instances_wins(self, tmp_path, spec):
        a, b = two_stores(tmp_path)
        run_hash = a.register(spec, "c")
        got_a = a.acquire_lease(run_hash, ttl=5.0)
        got_b = b.acquire_lease(run_hash, ttl=5.0)
        assert (got_a is None) != (got_b is None)
        a.close(), b.close()

    def test_every_claim_needs_a_ttl(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            run_hash = store.register(spec, "c")
            with pytest.raises(TypeError):
                store.acquire_lease(run_hash)
            lease = store.acquire_lease(run_hash, ttl=60.0)
            with pytest.raises(TypeError):
                store.complete(run_hash, {"x": 1}, 0.1)
            with pytest.raises(TypeError):
                store.fail(run_hash, "boom")
            assert store.complete(run_hash, {"x": 1}, 0.1, lease=lease)

    def test_failed_rows_are_leasable_again(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            run_hash = store.register(spec, "c")
            lease = store.acquire_lease(run_hash, ttl=60.0)
            assert store.fail(run_hash, "boom", lease=lease) == "failed"
            retry = store.acquire_lease(run_hash, ttl=60.0)
            assert retry is not None and retry.attempt == 2

    def test_done_and_quarantined_are_not_leasable(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            run_hash = store.register(spec, "c")
            lease = store.acquire_lease(run_hash, ttl=60.0)
            store.complete(run_hash, {"x": 1}, 0.1, lease=lease)
            assert store.acquire_lease(run_hash, ttl=60.0) is None
            other = store.register(RunSpec(seed=2), "c")
            store.quarantine(other, "manual")
            assert store.acquire_lease(other, ttl=60.0) is None


class TestRenewal:
    def test_renew_extends_the_deadline(self, tmp_path, spec):
        clock = FakeClock(0.0)
        with RunStore(tmp_path, clock=clock) as store:
            run_hash = store.register(spec, "c")
            lease = store.acquire_lease(run_hash, ttl=10.0)
            clock.advance(6.0)
            renewed = store.renew_lease(lease)
            assert renewed.deadline == pytest.approx(16.0)
            assert renewed.attempt == lease.attempt

    def test_renewal_after_reclaim_is_rejected(self, tmp_path, spec):
        """The paused-then-resumed instance can never renew a lost lease."""
        clock = FakeClock(0.0)
        a, b = two_stores(tmp_path, clock=clock)
        run_hash = a.register(spec, "c")
        lease = a.acquire_lease(run_hash, ttl=5.0)
        clock.advance(6.0)  # instance A pauses past its deadline
        reclaimed, _ = b.reclaim_expired(ttl=5.0)
        assert [l.run_hash for l in reclaimed] == [run_hash]
        assert a.renew_lease(lease) is None
        assert a.retry_lease(lease) is None
        assert a.release_lease(lease) is False
        # ... and the reclaimer's lease is live
        assert b.renew_lease(reclaimed[0]) is not None
        a.close(), b.close()

    def test_stale_lease_cannot_commit_result(self, tmp_path, spec):
        """Exactly-once under failover: the loser's payload is refused."""
        clock = FakeClock(0.0)
        a, b = two_stores(tmp_path, clock=clock)
        run_hash = a.register(spec, "c")
        stale = a.acquire_lease(run_hash, ttl=5.0)
        clock.advance(10.0)
        (fresh,), _ = b.reclaim_expired(ttl=5.0)
        assert a.complete(run_hash, {"winner": "a"}, 0.1, lease=stale) is False
        assert a.fail(run_hash, "late failure", lease=stale) is None
        assert b.complete(run_hash, {"winner": "b"}, 0.2, lease=fresh) is True
        assert a.get(run_hash).payload["winner"] == "b"
        a.close(), b.close()

    def test_skewed_clocks_cannot_break_cas(self, tmp_path, spec):
        """A fast clock expires leases early; ownership still transfers once.

        Instance B's clock runs 100s ahead, so it sees A's lease as expired
        immediately. The CAS still guarantees B's reclaim invalidates A's
        lease atomically — skew shifts *when* failover happens, never the
        exactly-once outcome.
        """
        slow, fast = FakeClock(0.0), FakeClock(100.0)
        a = RunStore(tmp_path, clock=slow,
                     instance_id="host-1-a")
        b = RunStore(tmp_path, clock=fast,
                     instance_id="host-2-b")
        run_hash = a.register(spec, "c")
        lease = a.acquire_lease(run_hash, ttl=5.0)
        (stolen,), _ = b.reclaim_expired(ttl=5.0)  # fast clock: expired now
        assert stolen.run_hash == run_hash
        # A still thinks it owns the run — every write path must refuse it.
        assert a.renew_lease(lease) is None
        assert a.complete(run_hash, {"from": "a"}, 0.1, lease=lease) is False
        assert b.complete(run_hash, {"from": "b"}, 0.1, lease=stolen) is True
        a.close(), b.close()


class TestReclaim:
    def test_reclaim_bumps_attempt_and_records_dead_owner(self, tmp_path, spec):
        clock = FakeClock(0.0)
        a, b = two_stores(tmp_path, clock=clock)
        run_hash = a.register(spec, "c")
        a.acquire_lease(run_hash, ttl=2.0)
        clock.advance(3.0)
        (lease,), _ = b.reclaim_expired(ttl=2.0)
        assert lease.owner == "host-2-bbbbbb"
        assert lease.attempt == 2
        stored = b.get(run_hash)
        assert stored.failed_owners == ("host-1-aaaaaa",)
        a.close(), b.close()

    def test_live_leases_are_not_reclaimed(self, tmp_path, spec):
        clock = FakeClock(0.0)
        a, b = two_stores(tmp_path, clock=clock)
        run_hash = a.register(spec, "c")
        a.acquire_lease(run_hash, ttl=10.0)
        clock.advance(5.0)
        reclaimed, quarantined = b.reclaim_expired(ttl=10.0)
        assert reclaimed == [] and quarantined == []
        a.close(), b.close()

    def test_null_deadline_counts_as_expired(self, tmp_path, spec):
        """A ``running`` row without a deadline (an unmonitored claim an
        older store version wrote) is recovered; a live lease is spared."""
        clock = FakeClock(0.0)
        a, b = two_stores(tmp_path, clock=clock)
        live = a.register(spec, "c")
        legacy = a.register(RunSpec(seed=2), "c")
        expired = a.register(RunSpec(seed=3), "c")
        a.acquire_lease(live, ttl=100.0)
        leave_unmonitored_claim(tmp_path, legacy)
        a.acquire_lease(expired, ttl=1.0)
        clock.advance(5.0)
        reclaimed, _ = b.reclaim_expired(ttl=10.0)
        assert sorted(lease.run_hash for lease in reclaimed) == sorted(
            [legacy, expired]
        )
        assert b.get(live).owner == "host-1-aaaaaa"
        assert b.get(legacy).failed_owners == ("old-1-x",)
        a.close(), b.close()

    def test_only_limits_the_sweep(self, tmp_path, spec):
        clock = FakeClock(0.0)
        a, b = two_stores(tmp_path, clock=clock)
        mine = a.register(spec, "c")
        other = a.register(RunSpec(seed=2), "d")
        a.acquire_lease(mine, ttl=1.0)
        a.acquire_lease(other, ttl=1.0)
        clock.advance(5.0)
        (lease,), _ = b.reclaim_expired(ttl=10.0, only={mine})
        assert lease.run_hash == mine
        untouched = b.get(other)
        assert (untouched.owner, untouched.attempts) == ("host-1-aaaaaa", 1)
        a.close(), b.close()

    def test_deadline_from_before_a_reboot_expires(self, tmp_path, spec):
        """A deadline written at clock 1e9 (a long uptime on a per-boot
        monotonic clock) must not look live to the next boot's store.  The
        default clock is wall time, on which 1e9 s is long past."""
        with RunStore(tmp_path, clock=lambda: 1e9) as before_reboot:
            run_hash = before_reboot.register(spec, "c")
            before_reboot.acquire_lease(run_hash, ttl=30.0)
        with RunStore(tmp_path) as after_reboot:
            (lease,), _ = after_reboot.reclaim_expired(ttl=30.0)
            assert lease.run_hash == run_hash
            assert after_reboot.complete(run_hash, {"v": 1}, 0.1, lease=lease)

    def test_reclaim_quarantines_after_distinct_instance_failures(
        self, tmp_path, spec
    ):
        clock = FakeClock(0.0)
        a, b = two_stores(tmp_path, clock=clock)
        run_hash = a.register(spec, "c")
        a.acquire_lease(run_hash, ttl=1.0)
        clock.advance(2.0)
        (lease_b,), quarantined = b.reclaim_expired(
            ttl=1.0, quarantine_after=2
        )
        assert quarantined == []  # only one distinct dead instance so far
        clock.advance(2.0)  # B dies too
        reclaimed, quarantined = a.reclaim_expired(ttl=1.0, quarantine_after=2)
        assert reclaimed == []
        assert [q.hash for q in quarantined] == [run_hash]
        stored = a.get(run_hash)
        assert stored.status == "quarantined"
        payload = stored.error_payload
        assert payload["quarantined"] is True
        assert sorted(payload["failed_owners"]) == [
            "host-1-aaaaaa", "host-2-bbbbbb"
        ]
        # terminal: not claimable, not reclaimable
        assert a.acquire_lease(run_hash, ttl=60.0) is None
        a.close(), b.close()


class TestQuarantine:
    def test_fail_with_quarantine_threshold(self, tmp_path, spec):
        a, b = two_stores(tmp_path)
        run_hash = a.register(spec, "c")
        lease = a.acquire_lease(run_hash, ttl=60.0)
        assert a.fail(run_hash, "crash 1", lease=lease,
                      quarantine_after=2) == "failed"
        lease = b.acquire_lease(run_hash, ttl=60.0)
        status = b.fail(run_hash, "crash 2", lease=lease, quarantine_after=2)
        assert status == "quarantined"
        payload = b.get(run_hash).error_payload
        assert payload["last_error"] == "crash 2"
        assert payload["attempts"] == 2
        a.close(), b.close()

    def test_same_instance_failures_do_not_quarantine(self, tmp_path, spec):
        """The threshold counts *distinct* instances, not raw attempts."""
        with RunStore(tmp_path, instance_id="host-1-only") as store:
            run_hash = store.register(spec, "c")
            for _ in range(4):
                lease = store.acquire_lease(run_hash, ttl=60.0)
                status = store.fail(
                    run_hash, "same box", lease=lease, quarantine_after=2
                )
                assert status == "failed"

    def test_requeue_clears_history(self, tmp_path, spec):
        a, b = two_stores(tmp_path)
        run_hash = a.register(spec, "c")
        for store in (a, b):
            lease = store.acquire_lease(run_hash, ttl=60.0)
            store.fail(run_hash, "x", lease=lease, quarantine_after=2)
        assert a.get(run_hash).status == "quarantined"
        assert a.requeue_quarantined(run_hash) is True
        stored = a.get(run_hash)
        assert stored.status == "pending"
        assert stored.failed_owners == ()
        assert stored.error is None
        assert a.acquire_lease(run_hash, ttl=60.0) is not None
        a.close(), b.close()

    def test_requeue_only_lifts_quarantine(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            run_hash = store.register(spec, "c")
            assert store.requeue_quarantined(run_hash) is False

    def test_manual_quarantine(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            run_hash = store.register(spec, "c")
            assert store.quarantine(run_hash, "operator says no") is True
            payload = store.get(run_hash).error_payload
            assert payload["reason"] == "operator says no"
            # done rows cannot be quarantined
            other = store.register(RunSpec(seed=3), "c")
            lease = store.acquire_lease(other, ttl=60.0)
            store.complete(other, {"v": 1}, 0.1, lease=lease)
            assert store.quarantine(other, "nope") is False


class TestEviction:
    def test_evicts_only_old_terminal_rows(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            done = store.register(spec, "c")
            lease = store.acquire_lease(done, ttl=60.0)
            store.complete(done, {"v": 1}, 0.1, lease=lease)
            pending = store.register(RunSpec(seed=2), "c")
            now = time.time()
            evicted = store.evict_older_than(3600.0, now=now)
            assert evicted == []
            evicted = store.evict_older_than(0.0, now=now + 10.0)
            assert evicted == [done]
            assert store.get(done) is None
            assert store.get(pending) is not None

    def test_evicted_run_re_registers_and_re_executes(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            run_hash = store.register(spec, "c")
            lease = store.acquire_lease(run_hash, ttl=60.0)
            store.complete(run_hash, {"v": 1}, 0.1, lease=lease)
            store.evict_older_than(0.0, now=time.time() + 10.0)
            again = store.register(spec, "c")
            assert again == run_hash
            assert store.get(again).status == "pending"
            assert store.acquire_lease(again, ttl=60.0) is not None

    def test_rejects_non_terminal_statuses(self, tmp_path):
        with RunStore(tmp_path) as store:
            with pytest.raises(CampaignError):
                store.evict_older_than(0.0, statuses=("running",))
            with pytest.raises(CampaignError):
                store.evict_older_than(0.0, statuses=("bogus",))
            with pytest.raises(CampaignError):
                store.evict_older_than(-1.0)


class TestInstances:
    def test_heartbeat_and_liveness(self, tmp_path):
        clock = FakeClock(0.0)
        a, b = two_stores(tmp_path, clock=clock)
        a.heartbeat_instance(ttl=10.0)
        b.heartbeat_instance(ttl=10.0)
        assert a.live_instances() == ["host-1-aaaaaa", "host-2-bbbbbb"]
        clock.advance(11.0)
        assert a.live_instances() == []
        a.close(), b.close()

    def test_default_instance_id_embeds_pid(self):
        import os

        instance_id = default_instance_id()
        assert int(instance_id.split("-")[-2]) == os.getpid()


class TestMigration:
    def _build_v1_store(self, path):
        """A hand-built schema-v1 database (pre-lease layout)."""
        path.mkdir(parents=True, exist_ok=True)
        db = sqlite3.connect(path / DB_NAME)
        db.executescript(
            """
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE runs (
                hash TEXT PRIMARY KEY,
                campaign TEXT NOT NULL,
                spec_json TEXT NOT NULL,
                status TEXT NOT NULL,
                payload_json TEXT,
                error TEXT,
                attempts INTEGER NOT NULL DEFAULT 0,
                duration_s REAL,
                created_at REAL NOT NULL,
                updated_at REAL NOT NULL
            );
            INSERT INTO meta VALUES ('schema', '1');
            """
        )
        db.execute(
            "INSERT INTO runs VALUES (?, 'old', ?, 'done', ?, NULL, 1, "
            "0.5, 1.0, 2.0)",
            (
                RunSpec(seed=7).spec_hash(),
                json.dumps(RunSpec(seed=7).to_dict()),
                json.dumps({"v": 42}),
            ),
        )
        db.commit()
        db.close()

    def test_v1_store_migrates_in_place(self, tmp_path):
        self._build_v1_store(tmp_path)
        with RunStore(tmp_path) as store:
            stored = store.get(RunSpec(seed=7).spec_hash())
            assert stored.status == "done"
            assert stored.payload == {"v": 42}
            assert stored.owner is None
            assert stored.failed_owners == ()
            # and the lease API works on the migrated table
            fresh = store.register(RunSpec(seed=8), "new")
            assert store.acquire_lease(fresh, ttl=5.0) is not None
        db = sqlite3.connect(tmp_path / DB_NAME)
        assert db.execute(
            "SELECT value FROM meta WHERE key='schema'"
        ).fetchone()[0] == str(STORE_SCHEMA)
        db.close()

    def test_unknown_future_schema_still_rejected(self, tmp_path):
        with RunStore(tmp_path):
            pass
        db = sqlite3.connect(tmp_path / DB_NAME)
        db.execute("UPDATE meta SET value='99' WHERE key='schema'")
        db.commit()
        db.close()
        with pytest.raises(CampaignError):
            RunStore(tmp_path)
