"""The persistent run store: lifecycle, exactly-once, resume semantics."""

import time

import pytest

from repro.campaign import RunSpec, RunStore, canonical_payload
from repro.campaign.store import DB_NAME, STORE_SCHEMA, Lease
from repro.core.results import RESULT_SCHEMA_VERSION
from repro.errors import CampaignError


@pytest.fixture
def spec() -> RunSpec:
    return RunSpec(m=2, n_pes=9, density=0.256, n_steps=50, seed=3)


class TestLifecycle:
    def test_register_creates_pending_row(self, spec):
        with RunStore() as store:
            run_hash = store.register(spec, "c")
            row = store.get(run_hash)
            assert row.status == "pending"
            assert row.attempts == 0
            assert row.run_spec() == spec

    def test_start_complete(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            lease = store.acquire_lease(h, ttl=60.0)
            assert store.get(h).status == "running"
            store.complete(h, {"x": 1}, duration_s=0.5, lease=lease)
            row = store.get(h)
            assert row.status == "done"
            # Completion stamps the result schema version into the payload.
            assert row.payload == {"schema_version": RESULT_SCHEMA_VERSION, "x": 1}
            assert row.attempts == 1
            assert row.duration_s == 0.5

    def test_fail_records_traceback(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            lease = store.acquire_lease(h, ttl=60.0)
            store.fail(h, "Traceback ...\nValueError: boom", lease=lease)
            row = store.get(h)
            assert row.status == "failed"
            assert "boom" in row.error

    def test_transitions_on_unknown_hash_change_nothing(self):
        with RunStore() as store:
            assert store.acquire_lease("feedfacedeadbeef", ttl=60.0) is None
            ghost = Lease("feedfacedeadbeef", store.instance_id, 1, 0.0, 60.0)
            assert not store.complete("feedfacedeadbeef", {"x": 1}, 0.1, lease=ghost)
            assert store.get("feedfacedeadbeef") is None

    def test_get_missing_returns_none(self):
        with RunStore() as store:
            assert store.get("0" * 16) is None


class TestExactlyOnce:
    def test_reregistering_done_run_keeps_payload(self, spec):
        with RunStore() as store:
            h = store.register(spec, "first")
            lease = store.acquire_lease(h, ttl=60.0)
            store.complete(h, {"x": 1}, 0.1, lease=lease)
            # A second campaign resubmitting the same content hash must not
            # disturb the stored result.
            assert store.register(spec, "second") == h
            row = store.get(h)
            assert row.status == "done"
            assert row.payload == {"schema_version": RESULT_SCHEMA_VERSION, "x": 1}
            assert row.campaign == "first"


class TestResumeSemantics:
    def test_running_rows_survive_reopen(self, tmp_path, spec):
        """Opening a store never steals a row: a sibling may be mid-run.  A
        killed holder's row comes back only through lease expiry."""
        store = RunStore(tmp_path, clock=lambda: 0.0)
        h = store.register(spec, "c")
        store.acquire_lease(h, ttl=60.0)
        store.close()  # a killed scheduler, or a live sibling: row 'running'
        with RunStore(tmp_path, clock=lambda: 30.0) as reopened:
            assert reopened.get(h).status == "running"
            assert reopened.reclaim_expired(ttl=60.0) == ([], [])
        with RunStore(tmp_path, clock=lambda: 61.0) as later:
            (lease,), _ = later.reclaim_expired(ttl=60.0)
            assert lease.run_hash == h

    def test_done_rows_survive_reopen(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            h = store.register(spec, "c")
            lease = store.acquire_lease(h, ttl=60.0)
            store.complete(h, {"x": 2}, 0.1, lease=lease)
        with RunStore(tmp_path) as store:
            row = store.get(h)
            assert row.status == "done"
            assert row.payload == {"schema_version": RESULT_SCHEMA_VERSION, "x": 2}

    def test_schema_mismatch_refuses_to_open(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            store.register(spec, "c")
            store._db.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema'",
                (str(STORE_SCHEMA + 1),),
            )
            store._db.commit()
        with pytest.raises(CampaignError):
            RunStore(tmp_path)

    def test_creates_directory_and_db_file(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        with RunStore(target):
            pass
        assert (target / DB_NAME).exists()


class TestSummaries:
    def test_status_counts_zero_filled(self, spec):
        with RunStore() as store:
            counts = store.status_counts()
            assert counts == {
                "pending": 0,
                "running": 0,
                "done": 0,
                "failed": 0,
                "quarantined": 0,
            }
            store.register(spec, "c")
            assert store.status_counts("c")["pending"] == 1

    def test_campaigns_listed(self, spec):
        with RunStore() as store:
            store.register(spec, "b")
            store.register(RunSpec(seed=9), "a")
            assert store.campaigns() == ["a", "b"]

    def test_a_shared_run_belongs_to_every_campaign_that_registered_it(self, spec):
        with RunStore() as store:
            shared = store.register(spec, "a")
            store.register(spec, "b")
            store.register(RunSpec(seed=9), "b")
            assert [row.hash for row in store.runs("a")] == [shared]
            assert len(store.runs("b")) == 2
            assert store.status_counts("b")["pending"] == 2
            assert store.get(shared).campaign == "a"  # the first registrant
            lease = store.acquire_lease(shared, ttl=60.0)
            store.complete(shared, {"v": 1}, 0.1, lease=lease)
            assert store.evict_older_than(0.0, campaign="a", now=time.time() + 10) == []
            assert store.campaigns() == ["b"]  # a kept no run

    def test_older_store_gains_its_campaign_members(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            store.register(spec, "a")
            store._db.execute("DROP TABLE members")
            store._db.execute("CREATE INDEX runs_by_campaign ON runs (campaign, status)")
            store._db.execute("UPDATE meta SET value = '2' WHERE key = 'schema'")
            store._db.commit()
        with RunStore(tmp_path) as store:
            assert len(store.runs("a")) == 1
            assert store.campaigns() == ["a"]
            assert store._db.execute(
                "SELECT name FROM sqlite_master WHERE name = 'runs_by_campaign'"
            ).fetchall() == []
            store.register(spec, "b")
            assert len(store.runs("b")) == 1

    def test_runs_filter_by_campaign(self, spec):
        with RunStore() as store:
            store.register(spec, "a")
            store.register(RunSpec(seed=9), "b")
            assert len(store.runs()) == 2
            assert len(store.runs("a")) == 1


class TestCanonicalPayload:
    def test_key_order_is_canonical(self):
        assert canonical_payload({"b": 1, "a": 2}) == canonical_payload({"a": 2, "b": 1})

    def test_compact_separators(self):
        assert canonical_payload({"a": [1, 2]}) == '{"a":[1,2]}'


class TestConcurrentClaim:
    def test_claim_flips_pending_to_running(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            assert store.acquire_lease(h, ttl=60.0)
            row = store.get(h)
            assert row.status == "running"
            assert row.attempts == 1

    def test_second_claim_loses(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            assert store.acquire_lease(h, ttl=60.0)
            assert store.acquire_lease(h, ttl=60.0) is None
            assert store.get(h).attempts == 1

    def test_done_run_cannot_be_claimed(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            lease = store.acquire_lease(h, ttl=60.0)
            store.complete(h, {"x": 1}, 0.1, lease=lease)
            assert store.acquire_lease(h, ttl=60.0) is None

    def test_failed_run_can_be_reclaimed(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            lease = store.acquire_lease(h, ttl=60.0)
            store.fail(h, "boom", lease=lease)
            assert store.acquire_lease(h, ttl=60.0)
            assert store.get(h).attempts == 2

    def test_release_demotes_only_running(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            lease = store.acquire_lease(h, ttl=60.0)
            assert store.release_lease(lease)
            assert store.get(h).status == "pending"
            assert not store.release_lease(lease)  # pending: nothing to release
            lease = store.acquire_lease(h, ttl=60.0)
            store.complete(h, {"x": 1}, 0.1, lease=lease)
            assert not store.release_lease(lease)  # done stays done

    def test_wal_mode_enabled_for_file_stores(self, tmp_path):
        with RunStore(tmp_path) as store:
            mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"

    def test_claims_race_from_two_connections(self, tmp_path, spec):
        with RunStore(tmp_path) as a:
            h = a.register(spec, "c")
            with RunStore(tmp_path) as b:
                winners = [a.acquire_lease(h, ttl=60.0), b.acquire_lease(h, ttl=60.0)]
                assert sorted(lease is not None for lease in winners) == [False, True]
