"""Graceful drain, demotion and restart-resume (the SIGTERM contract).

``initiate_drain`` is exactly what the server's SIGTERM handler calls, so
triggering it over ``call_soon_threadsafe`` exercises the signal path minus
the signal delivery itself (which needs a real process and is covered by
the CI ``service-smoke`` job).
"""

from __future__ import annotations

import threading

from repro.campaign.spec import RunSpec
from repro.campaign.store import RunStore

from ..helpers import leave_unmonitored_claim
from .conftest import CountingRunner

SPEC = {
    "kind": "preset",
    "preset": "quickstart",
    "mode": "dlb",
    "n_steps": 10,
    "seed": 3,
}


def _wait_until(predicate, timeout_s=5.0, interval_s=0.02):
    waited = 0.0
    while not predicate():
        assert waited < timeout_s, "condition not reached in time"
        threading.Event().wait(interval_s)
        waited += interval_s


class TestDrain:
    def test_sigterm_mid_run_demotes_and_restart_resumes(
        self, service_factory, tmp_path, gate
    ):
        """Satellite: drain mid-run -> 503, clean demotion, resumed result."""
        store_dir = str(tmp_path / "store")
        runner = CountingRunner(gate=gate)
        handle = service_factory(
            store_dir=store_dir, runner=runner, workers=1, drain_grace_s=1.0
        )
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        # The worker must be mid-run (claimed, blocked on the gate).
        with RunStore(store_dir) as store:
            _wait_until(lambda: store.get(run_id).status == "running")
        handle.drain()
        _wait_until(lambda: handle.service.draining)
        # New submissions are refused while draining, with Retry-After.
        refused = client.submit(dict(SPEC, seed=9))
        assert refused.status == 503
        assert "Retry-After" in refused.headers
        assert client.ready().status == 503
        assert handle.join(timeout=15), "server did not exit after drain"
        # In-flight run was demoted cleanly: pending, no payload, and the
        # (late) gate release must not have recorded a result.
        gate.set()
        with RunStore(store_dir) as store:
            stored = store.get(run_id)
            assert stored.status == "pending"
            assert stored.payload is None
        # A restarted server requeues the pending row and serves its result
        # under the same content hash, with no resubmission needed.
        restarted = service_factory(
            store_dir=store_dir, runner=CountingRunner(), workers=1
        )
        payload = restarted.client().wait(run_id, timeout=30)
        assert payload["status"] == "done"
        assert payload["run_id"] == run_id
        # The interrupted attempt counted; the resumed one completed it.
        assert payload["attempts"] == 2

    def test_startup_sweep_demotes_stale_running_rows(
        self, service_factory, tmp_path
    ):
        """Satellite: crash recovery — the reaper's first sweep at startup
        takes stale 'running' rows from their dead owner (an expired lease,
        or none at all as older versions claimed) and finishes them."""
        store_dir = str(tmp_path / "store")
        spec = RunSpec(**SPEC)
        with RunStore(store_dir, clock=lambda: 0.0) as store:
            expired = store.register(spec, "service")
            assert store.acquire_lease(expired, ttl=1.0)  # crashed mid-run
            unmonitored = store.register(RunSpec(**dict(SPEC, seed=4)), "service")
        leave_unmonitored_claim(store_dir, unmonitored)
        handle = service_factory(store_dir=store_dir, runner=CountingRunner())
        for run_hash in (expired, unmonitored):
            payload = handle.client().wait(run_hash, timeout=30)
            assert payload["status"] == "done"
        reclaimed = handle.service.metrics.counter(
            "repro_service_reclaimed_runs_total"
        ).value()
        assert reclaimed == 2

    def test_drain_is_idempotent_and_queue_is_demoted(
        self, service_factory, tmp_path, gate
    ):
        store_dir = str(tmp_path / "store")
        handle = service_factory(
            store_dir=store_dir,
            runner=CountingRunner(gate=gate),
            workers=1,
            queue_size=4,
            drain_grace_s=0.2,
        )
        client = handle.client()
        first = client.submit(SPEC).body["run_id"]
        queued = client.submit(dict(SPEC, seed=8)).body["run_id"]
        with RunStore(store_dir) as store:
            _wait_until(lambda: store.get(first).status == "running")
        handle.drain()
        handle.drain()  # second call is a no-op
        assert handle.join(timeout=15)
        with RunStore(store_dir) as store:
            assert store.get(first).status == "pending"
            assert store.get(queued).status == "pending"
        gate.set()
