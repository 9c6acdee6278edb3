"""Fleet semantics with in-process services: reaper, stolen leases, readyz.

These tests run full :class:`SimulationService` instances on background
event-loop threads (the ``service_factory`` fixture) but stay inside one
process, so they exercise the lease/reaper/quarantine machinery with
deterministic runners and tight timings. The *process-level* proof — real
SIGKILLs against real ``repro serve`` children — lives in
``test_fleet_chaos.py``.
"""

from __future__ import annotations

import asyncio
import random
import sqlite3
import threading
import time

import pytest

from repro.campaign.spec import RunSpec
from repro.campaign.store import RunStore
from repro.errors import ServiceError
from repro.service.client import ServiceClient, full_jitter_backoff

from ..conftest import CountingRunner

SPEC = {
    "kind": "preset",
    "preset": "quickstart",
    "mode": "dlb",
    "n_steps": 10,
    "seed": 3,
}


def wait_until(predicate, timeout=15.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def on_loop(handle, fn, timeout=10.0):
    """Run ``fn()`` on the service's event-loop thread and return its value.

    The service's store connection is bound to that thread (SQLite
    ``check_same_thread``), so service methods that touch it must be
    invoked there.
    """

    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(call(), handle.loop).result(timeout)


class TestReaper:
    def test_reaper_reclaims_ghost_lease_and_finishes(
        self, service_factory, tmp_path
    ):
        """A run leased by a dead instance is reclaimed, re-run and committed.

        The "dead instance" is simulated exactly as SIGKILL leaves it: a
        leased ``running`` row whose owner never renews.
        """
        store_dir = str(tmp_path / "store")
        spec = RunSpec(kind="preset", preset="quickstart", n_steps=10, seed=3)
        with RunStore(
            store_dir, instance_id="deadhost-424242-x"
        ) as ghost_store:
            run_hash = ghost_store.register(spec, "service")
            assert ghost_store.acquire_lease(run_hash, ttl=1.0) is not None

        runner = CountingRunner()
        handle = service_factory(
            store_dir=store_dir, runner=runner,
            lease_ttl=1.0, reap_interval=0.2, max_attempts=3,
        )
        client = handle.client()

        def resolved():
            with RunStore(store_dir) as store:
                return store.get(run_hash).status == "done"

        wait_until(resolved, message="reaper to reclaim and finish the run")
        with RunStore(store_dir) as store:
            stored = store.get(run_hash)
        assert stored.attempts == 2  # ghost's attempt + the reclaim
        assert stored.failed_owners == ("deadhost-424242-x",)
        assert runner.calls == 1
        assert "repro_service_reclaimed_runs_total 1" in client.metrics()

    def test_stolen_lease_cannot_commit_over_the_reclaimer(
        self, service_factory, tmp_path, gate
    ):
        """The overloaded owner's late result is discarded, never committed.

        Instance A executes the run but stops renewing (its keeper cadence
        is far beyond the TTL — the "paused process" case). Instance B
        reclaims and commits; when A's execution finally finishes, its
        commit is CAS-rejected and A surrenders.
        """
        store_dir = str(tmp_path / "store")

        def runner_a(spec_dict, timeout, events_path):
            gate.wait(timeout=30)
            return {"ok": True, "payload": {"winner": "a"}, "duration_s": 0.0}

        def runner_b(spec_dict, timeout, events_path):
            return {"ok": True, "payload": {"winner": "b"}, "duration_s": 0.0}

        slow = service_factory(
            store_dir=store_dir, runner=runner_a,
            lease_ttl=0.5, reap_interval=30.0,  # never renews, never reaps
        )
        run_id = slow.client().submit(SPEC).body["run_id"]
        wait_until(
            lambda: run_id in slow.service.pool.inflight,
            message="instance A to start executing",
        )
        fast = service_factory(
            store_dir=store_dir, runner=runner_b,
            lease_ttl=0.5, reap_interval=0.2,
        )

        def committed_by_b():
            with RunStore(store_dir) as store:
                stored = store.get(run_id)
            return stored.status == "done" and stored.payload["winner"] == "b"

        wait_until(committed_by_b, message="instance B to reclaim and commit")
        gate.set()  # A's execution finishes late; its commit must be refused
        wait_until(
            lambda: "repro_service_lost_leases_total 1"
            in slow.client().metrics(),
            message="instance A to surrender its stolen lease",
        )
        with RunStore(store_dir) as store:
            stored = store.get(run_id)
        assert stored.payload["winner"] == "b"  # exactly one payload, B's
        assert stored.attempts == 2
        assert stored.failed_owners  # A went on record as the failed owner
        # B's reclaim is visible in its metrics; A never committed.
        assert "repro_service_reclaimed_runs_total 1" in fast.client().metrics()


class TestQuarantineOverHttp:
    def test_poison_run_quarantines_with_structured_payload(
        self, service_factory, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        handle = service_factory(
            store_dir=store_dir, runner=CountingRunner(fail_first=100),
            retries=0, max_attempts=1, backoff=0.01,
        )
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        with pytest.raises(ServiceError, match="quarantined"):
            client.wait(run_id, timeout=30)
        status = client.status(run_id)
        assert status.body["status"] == "quarantined"
        listing = client.quarantine()
        assert [entry["run_id"] for entry in listing] == [run_id]
        payload = listing[0]["quarantine"]
        assert payload["quarantined"] is True
        assert payload["attempts"] == 1
        assert len(payload["failed_owners"]) == 1
        assert "injected failure" in payload["last_error"]
        assert "repro_service_quarantined_runs_total 1" in client.metrics()

    def test_resubmission_of_quarantined_run_is_409(
        self, service_factory, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        handle = service_factory(
            store_dir=store_dir, runner=CountingRunner(fail_first=100),
            retries=0, max_attempts=1, backoff=0.01,
        )
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        wait_until(
            lambda: client.status(run_id).body["status"] == "quarantined",
            message="run to quarantine",
        )
        again = client.submit(SPEC)
        assert again.status == 409
        assert again.body["quarantine"]["quarantined"] is True
        # Quarantine is terminal until an operator explicitly requeues.
        with RunStore(store_dir) as store:
            assert store.requeue_quarantined(run_id) is True
            assert store.get(run_id).status == "pending"


class TestHonestReadyz:
    def test_ready_when_healthy(self, service_factory, tmp_path):
        handle = service_factory(
            store_dir=str(tmp_path / "store"), runner=CountingRunner()
        )
        response = handle.client().ready()
        assert response.status == 200
        assert response.body["status"] == "ready"
        assert response.body["queue_depth"] == 0

    def test_draining_answers_503_with_reason(self, service_factory, tmp_path):
        handle = service_factory(
            store_dir=str(tmp_path / "store"), runner=CountingRunner()
        )
        handle.service.draining = True
        try:
            response = handle.client().ready()
            assert response.status == 503
            assert "draining" in response.body["error"]
            assert "Retry-After" in response.headers
        finally:
            handle.service.draining = False

    def test_broken_store_answers_503_with_reason(
        self, service_factory, tmp_path
    ):
        handle = service_factory(
            store_dir=str(tmp_path / "store"), runner=CountingRunner()
        )

        def broken_ping():
            raise sqlite3.OperationalError("database is locked")

        handle.service.store.ping = broken_ping
        response = handle.client().ready()
        assert response.status == 503
        assert "run store unreachable" in response.body["error"]
        assert "database is locked" in response.body["error"]
        assert "Retry-After" in response.headers

    def test_saturated_queue_answers_503_with_reason(
        self, service_factory, gate, tmp_path
    ):
        handle = service_factory(
            store_dir=str(tmp_path / "store"),
            runner=CountingRunner(gate=gate), workers=1, queue_size=1,
        )
        client = handle.client()
        client.submit(SPEC)  # claimed by the only worker, blocks on the gate
        wait_until(
            lambda: handle.service.queue.depth == 0
            and handle.service.pool.inflight,
            message="worker to pull the first run",
        )
        client.submit(dict(SPEC, seed=4))  # fills the queue
        response = client.ready()
        assert response.status == 503
        assert "saturated" in response.body["error"]
        gate.set()


class TestClientBackoff:
    def test_full_jitter_is_bounded_and_deterministic(self):
        rng = random.Random(7)
        delays = [full_jitter_backoff(n, base=0.2, cap=5.0, rng=rng)
                  for n in range(8)]
        for attempt, delay in enumerate(delays):
            assert 0.0 <= delay <= min(5.0, 0.2 * 2 ** attempt)
        # Same seed, same schedule.
        rng_a, rng_b = random.Random(11), random.Random(11)
        assert [full_jitter_backoff(n, rng=rng_a) for n in range(5)] == [
            full_jitter_backoff(n, rng=rng_b) for n in range(5)
        ]

    def _scripted_client(self, responses):
        """A client whose submits are scripted and whose sleeps are recorded."""
        sleeps: list[float] = []
        client = ServiceClient(
            port=1, rng=random.Random(0), sleep=sleeps.append
        )
        script = list(responses)

        def submit(submission):
            status, headers = script.pop(0)
            from repro.service.client import ServiceResponse

            return ServiceResponse(status, {"error": "scripted"}, headers)

        client.submit = submit
        return client, sleeps

    def test_retries_429_and_503_until_success(self):
        client, sleeps = self._scripted_client(
            [(429, {}), (503, {}), (202, {})]
        )
        response = client.submit_with_retry({"kind": "preset"}, retries=5)
        assert response.status == 202
        assert len(sleeps) == 2
        for attempt, delay in enumerate(sleeps):
            assert 0.0 <= delay <= 0.2 * 2 ** attempt

    def test_retry_after_is_the_delay_floor(self):
        client, sleeps = self._scripted_client(
            [(429, {"Retry-After": "1.5"}), (202, {})]
        )
        response = client.submit_with_retry({"kind": "preset"})
        assert response.status == 202
        assert len(sleeps) == 1
        assert sleeps[0] >= 1.5  # never retry sooner than the server asked

    def test_non_retryable_statuses_return_immediately(self):
        for status in (400, 404, 409):
            client, sleeps = self._scripted_client([(status, {})])
            response = client.submit_with_retry({"kind": "preset"})
            assert response.status == status
            assert sleeps == []

    def test_exhausted_retries_return_the_last_response(self):
        client, sleeps = self._scripted_client([(429, {})] * 3)
        response = client.submit_with_retry({"kind": "preset"}, retries=2)
        assert response.status == 429
        assert len(sleeps) == 2


class TestResultEviction:
    def test_evicted_result_re_executes_cleanly(
        self, service_factory, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        runner = CountingRunner()
        handle = service_factory(
            store_dir=store_dir, runner=runner,
            result_ttl_s=0.0, gc_interval_s=3600.0,  # sweep only on demand
        )
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        client.wait(run_id, timeout=30)
        assert runner.calls == 1
        evicted = on_loop(handle, handle.service.evict_now)
        assert evicted == [run_id]
        with RunStore(store_dir) as store:
            assert store.get(run_id) is None
        assert "repro_service_evicted_runs_total 1" in client.metrics()
        # Resubmission is a fresh run, not a cache hit, and lands cleanly.
        again = client.submit(SPEC)
        assert again.status == 202
        assert again.body["run_id"] == run_id  # same content hash
        result = client.wait(run_id, timeout=30)
        assert result["status"] == "done"
        assert runner.calls == 2

    def test_ttl_keeps_fresh_results(self, service_factory, tmp_path):
        store_dir = str(tmp_path / "store")
        handle = service_factory(
            store_dir=store_dir, runner=CountingRunner(),
            result_ttl_s=3600.0, gc_interval_s=3600.0,
        )
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        client.wait(run_id, timeout=30)
        assert on_loop(handle, handle.service.evict_now) == []
        with RunStore(store_dir) as store:
            assert store.get(run_id).status == "done"


class TestFleetGauges:
    def test_live_instance_gauge_counts_heartbeats(
        self, service_factory, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        first = service_factory(
            store_dir=store_dir, runner=CountingRunner(),
            lease_ttl=5.0, reap_interval=0.2,
        )
        second = service_factory(
            store_dir=store_dir, runner=CountingRunner(),
            lease_ttl=5.0, reap_interval=0.2,
        )

        def both_seen():
            return "repro_service_fleet_instances 2" in first.client().metrics()

        wait_until(both_seen, message="both instances to heartbeat")
        assert "repro_service_fleet_instances 2" in second.client().metrics()
