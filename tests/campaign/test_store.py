"""The persistent run store: lifecycle, exactly-once, resume semantics."""

import pytest

from repro.campaign import RunSpec, RunStore, canonical_payload
from repro.campaign.store import DB_NAME, STORE_SCHEMA
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
            store.acquire_lease(h)
            assert store.get(h).status == "running"
            store.complete(h, {"x": 1}, duration_s=0.5)
            row = store.get(h)
            assert row.status == "done"
            # Completion stamps the result schema version into the payload.
            assert row.payload == {"schema_version": RESULT_SCHEMA_VERSION, "x": 1}
            assert row.attempts == 1
            assert row.duration_s == 0.5

    def test_fail_records_traceback(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            store.acquire_lease(h)
            store.fail(h, "Traceback ...\nValueError: boom")
            row = store.get(h)
            assert row.status == "failed"
            assert "boom" in row.error

    def test_transitions_on_unknown_hash_change_nothing(self):
        with RunStore() as store:
            assert store.acquire_lease("feedfacedeadbeef") is None
            assert not store.complete("feedfacedeadbeef", {"x": 1}, 0.1)
            assert store.get("feedfacedeadbeef") is None

    def test_get_missing_returns_none(self):
        with RunStore() as store:
            assert store.get("0" * 16) is None


class TestExactlyOnce:
    def test_reregistering_done_run_keeps_payload(self, spec):
        with RunStore() as store:
            h = store.register(spec, "first")
            store.acquire_lease(h)
            store.complete(h, {"x": 1}, 0.1)
            # A second campaign resubmitting the same content hash must not
            # disturb the stored result.
            assert store.register(spec, "second") == h
            row = store.get(h)
            assert row.status == "done"
            assert row.payload == {"schema_version": RESULT_SCHEMA_VERSION, "x": 1}
            assert row.campaign == "first"


class TestResumeSemantics:
    def test_running_rows_demoted_on_open(self, tmp_path, spec):
        store = RunStore(tmp_path)
        h = store.register(spec, "c")
        store.acquire_lease(h)
        store.close()  # simulate a killed scheduler: row left 'running'
        reopened = RunStore(tmp_path)
        assert reopened.get(h).status == "pending"
        reopened.close()

    def test_done_rows_survive_reopen(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            h = store.register(spec, "c")
            store.acquire_lease(h)
            store.complete(h, {"x": 2}, 0.1)
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
            assert store.acquire_lease(h)
            row = store.get(h)
            assert row.status == "running"
            assert row.attempts == 1

    def test_second_claim_loses(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            assert store.acquire_lease(h)
            assert store.acquire_lease(h) is None
            assert store.get(h).attempts == 1

    def test_done_run_cannot_be_claimed(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            store.acquire_lease(h)
            store.complete(h, {"x": 1}, 0.1)
            assert store.acquire_lease(h) is None

    def test_failed_run_can_be_reclaimed(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            store.acquire_lease(h)
            store.fail(h, "boom")
            assert store.acquire_lease(h)
            assert store.get(h).attempts == 2

    def test_release_demotes_only_running(self, spec):
        with RunStore() as store:
            h = store.register(spec, "c")
            lease = store.acquire_lease(h)
            assert store.release_lease(lease)
            assert store.get(h).status == "pending"
            assert not store.release_lease(lease)  # pending: nothing to release
            lease = store.acquire_lease(h)
            store.complete(h, {"x": 1}, 0.1, lease=lease)
            assert not store.release_lease(lease)  # done stays done

    def test_takeover_false_leaves_running_rows(self, tmp_path, spec):
        with RunStore(tmp_path) as store:
            h = store.register(spec, "c")
            store.acquire_lease(h)
        with RunStore(tmp_path, takeover=False) as sibling:
            assert sibling.get(h).status == "running"
        with RunStore(tmp_path) as recovery:  # crash recovery: takeover
            assert recovery.get(h).status == "pending"

    def test_wal_mode_enabled_for_file_stores(self, tmp_path):
        with RunStore(tmp_path) as store:
            mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"

    def test_claims_race_from_two_connections(self, tmp_path, spec):
        with RunStore(tmp_path) as a:
            h = a.register(spec, "c")
            with RunStore(tmp_path, takeover=False) as b:
                winners = [a.acquire_lease(h), b.acquire_lease(h)]
                assert sorted(lease is not None for lease in winners) == [False, True]
