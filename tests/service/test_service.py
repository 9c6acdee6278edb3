"""End-to-end service behaviour over real HTTP.

Covers the PR's acceptance criteria: concurrent identical submissions
dedupe to one execution with byte-identical payloads, the served result is
bit-exact against a direct ``repro.api.simulate`` of the same spec, a full
queue answers 429 with ``Retry-After``, and malformed/incompatible
submissions get actionable 400s.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import api
from repro.campaign.store import RunStore, canonical_payload
from repro.config import RunConfig
from repro.core.results import RESULT_SCHEMA_VERSION

from .conftest import CountingRunner

SPEC = {
    "kind": "preset",
    "preset": "quickstart",
    "mode": "dlb",
    "n_steps": 10,
    "seed": 3,
}


class TestEndToEnd:
    def test_submit_poll_result_digest_matches_direct_api(
        self, service_factory, tmp_path
    ):
        """The served payload is bit-exact against the facade (no runner)."""
        handle = service_factory(store_dir=str(tmp_path / "store"), workers=2)
        client = handle.client()
        accepted = client.submit(SPEC)
        assert accepted.status == 202
        run_id = accepted.body["run_id"]
        result = client.wait(run_id, timeout=120)
        assert result["status"] == "done"
        direct = api.simulate(
            SPEC["preset"],
            run=RunConfig(
                steps=SPEC["n_steps"],
                seed=SPEC["seed"],
                record_interval=max(1, SPEC["n_steps"] // 50),
            ),
        )
        assert result["payload"]["digest"] == direct.digest()

    def test_resubmission_of_done_run_is_a_cache_hit(self, service_factory):
        handle = service_factory(runner=CountingRunner())
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        client.wait(run_id, timeout=30)
        again = client.submit(SPEC)
        assert again.status == 200
        assert again.body["cached"] is True
        assert again.body["run_id"] == run_id
        metrics = client.metrics()
        assert "repro_service_dedup_hits_total 1" in metrics


class TestConcurrentDedup:
    def test_parallel_identical_submissions_execute_once(
        self, service_factory, gate, tmp_path
    ):
        """Satellite: N clients race one spec -> 1 execution, N-1 dedup hits."""
        runner = CountingRunner(gate=gate)
        store_dir = str(tmp_path / "store")
        handle = service_factory(
            runner=runner, workers=2, queue_size=8, store_dir=store_dir
        )
        n_clients = 6
        responses: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def submit():
            response = handle.client().submit(SPEC)
            with lock:
                responses.append((response.status, response.body))

        threads = [threading.Thread(target=submit) for _ in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert len(responses) == n_clients
        assert all(status == 202 for status, _ in responses)
        # Exactly one submission was "new"; the rest deduplicated onto it.
        deduplicated = [b for _, b in responses if b.get("deduplicated")]
        assert len(deduplicated) == n_clients - 1
        gate.set()  # let the single execution finish
        run_id = responses[0][1]["run_id"]
        payloads = [
            handle.client().wait(run_id, timeout=30) for _ in range(n_clients)
        ]
        assert runner.calls == 1  # exactly one execution
        # Inspect the store over its own connection (SQLite is per-thread).
        with RunStore(store_dir) as store:
            stored = store.get(run_id)
        assert stored.attempts == 1
        # N identical payloads, byte-for-byte in canonical form.
        blobs = {canonical_payload(p["payload"]) for p in payloads}
        assert len(blobs) == 1
        dedup = handle.service.metrics.counter(
            "repro_service_dedup_hits_total"
        ).value()
        assert dedup == n_clients - 1

    def test_shared_store_not_double_executed_across_instances(
        self, service_factory, tmp_path, gate
    ):
        """Two services on one store: the second dedupes to the first's run."""
        store_dir = str(tmp_path / "shared")
        runner_a = CountingRunner(gate=gate)
        runner_b = CountingRunner(gate=gate)
        first = service_factory(store_dir=store_dir, runner=runner_a)
        second = service_factory(store_dir=store_dir, runner=runner_b)
        run_id = first.client().submit(SPEC).body["run_id"]
        # Wait until the first instance has actually claimed the row.
        deadline_guard = 0
        with RunStore(store_dir) as store:
            while store.get(run_id).status != "running":
                deadline_guard += 1
                assert deadline_guard < 200, "first service never claimed it"
                threading.Event().wait(0.02)
        assert second.client().submit(SPEC).status == 202
        gate.set()
        payload = second.client().wait(run_id, timeout=30)
        assert payload["status"] == "done"
        assert runner_a.calls + runner_b.calls == 1


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(
        self, service_factory, gate
    ):
        handle = service_factory(
            runner=CountingRunner(gate=gate), workers=1, queue_size=1
        )
        client = handle.client()
        first = client.submit(SPEC)  # claimed by the only worker, blocks
        assert first.status == 202
        # Wait for the worker to pull the first run off the queue.
        guard = 0
        while handle.service.queue.depth > 0:
            guard += 1
            assert guard < 200
            threading.Event().wait(0.02)
        queued = client.submit(dict(SPEC, seed=4))  # fills the queue
        assert queued.status == 202
        rejected = client.submit(dict(SPEC, seed=5))
        assert rejected.status == 429
        assert "Retry-After" in rejected.headers
        assert "queue is full" in rejected.body["error"]
        gate.set()


class TestValidationOverHttp:
    def test_unknown_preset_gets_actionable_400(self, service_factory):
        handle = service_factory(runner=CountingRunner())
        response = handle.client().submit(dict(SPEC, preset="nope"))
        assert response.status == 400
        assert "unknown preset 'nope'" in response.body["error"]
        assert "available" in response.body["error"]

    def test_unknown_backend_gets_400_not_a_failing_run(self, service_factory):
        runner = CountingRunner()
        handle = service_factory(runner=runner)
        response = handle.client().submit(dict(SPEC, backend="kdtree"))
        assert response.status == 400
        assert "unknown field(s) 'backend'" in response.body["error"]
        assert runner.calls == 0

    def test_ddm_beside_a_balancer_gets_400_not_a_mislabelled_run(
        self, service_factory
    ):
        runner = CountingRunner()
        handle = service_factory(runner=runner)
        response = handle.client().submit(dict(SPEC, mode="ddm", balancer="diffusion"))
        assert response.status == 400
        assert "contradicts balancer 'diffusion'" in response.body["error"]
        assert runner.calls == 0

    def test_float_n_steps_gets_400_not_a_failing_run(self, service_factory):
        runner = CountingRunner()
        handle = service_factory(runner=runner)
        response = handle.client().submit(dict(SPEC, n_steps=5.0))
        assert response.status == 400
        assert "n_steps must be an integer" in response.body["error"]
        assert runner.calls == 0

    def test_unknown_major_schema_version_gets_400(self, service_factory):
        """Satellite: unknown-major specs rejected with the schema message."""
        handle = service_factory(runner=CountingRunner())
        response = handle.client().submit(dict(SPEC, schema_version="99.0"))
        assert response.status == 400
        assert "99.0" in response.body["error"]
        assert response.body["schema_version"] == RESULT_SCHEMA_VERSION

    def test_non_json_body_gets_400(self, service_factory):
        import http.client

        handle = service_factory(runner=CountingRunner())
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            conn.request("POST", "/v1/runs", body=b"not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "not JSON" in body["error"]

    def test_unknown_run_and_premature_result(self, service_factory, gate):
        handle = service_factory(runner=CountingRunner(gate=gate))
        client = handle.client()
        assert client.status("feedfacecafebeef").status == 404
        run_id = client.submit(SPEC).body["run_id"]
        conflict = client.result(run_id)
        assert conflict.status == 409
        assert "not done" in conflict.body["error"]
        gate.set()

    def test_unknown_route_gets_404(self, service_factory):
        handle = service_factory(runner=CountingRunner())
        response = handle.client()._request("GET", "/v2/nonsense")
        assert response.status == 404
        assert "no route" in response.body["error"]


class TestObservability:
    def test_metrics_exposition_carries_service_series(self, service_factory):
        handle = service_factory(runner=CountingRunner())
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        client.wait(run_id, timeout=30)
        text = client.metrics()
        for needle in (
            "repro_service_requests_total",
            "repro_service_queue_depth",
            "repro_service_inflight_runs",
            "repro_service_draining 0",
            'repro_service_submissions_total{outcome="accepted"} 1',
            'repro_service_runs_total{status="done"} 1',
            "repro_service_request_seconds",
        ):
            assert needle in text, needle

    def test_every_response_is_schema_versioned(self, service_factory):
        handle = service_factory(runner=CountingRunner())
        client = handle.client()
        assert client.health().body["schema_version"] == RESULT_SCHEMA_VERSION
        assert client.ready().body["schema_version"] == RESULT_SCHEMA_VERSION
        submitted = client.submit(SPEC)
        assert submitted.body["schema_version"] == RESULT_SCHEMA_VERSION

    def test_stream_ends_with_final_record(self, service_factory):
        handle = service_factory(runner=CountingRunner())
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        records = list(client.stream(run_id))
        assert records, "stream yielded nothing"
        assert records[-1]["final"] is True
        assert records[-1]["status"] == "done"
        assert all("schema_version" in record for record in records)

    def test_flight_recorder_events_served_for_real_run(
        self, service_factory, tmp_path
    ):
        handle = service_factory(
            store_dir=str(tmp_path / "store"),
            events_dir=str(tmp_path / "events"),
            workers=1,
        )
        client = handle.client()
        run_id = client.submit(dict(SPEC, record_events=True)).body["run_id"]
        client.wait(run_id, timeout=120)
        events = client.events(run_id)
        assert events, "no flight-recorder events served"
        assert all("kind" in record for record in events)

    def test_record_events_without_events_dir_is_rejected(
        self, service_factory
    ):
        handle = service_factory(runner=CountingRunner())
        response = handle.client().submit(dict(SPEC, record_events=True))
        assert response.status == 400
        assert "events" in response.body["error"]


class TestRetries:
    def test_failed_run_retries_then_succeeds(self, service_factory):
        runner = CountingRunner(fail_first=1)
        handle = service_factory(runner=runner, retries=1, backoff=0.01)
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        payload = client.wait(run_id, timeout=30)
        assert payload["status"] == "done"
        assert runner.calls == 2
        assert payload["attempts"] == 2

    def test_exhausted_retries_record_failure(self, service_factory):
        runner = CountingRunner(fail_first=10)
        handle = service_factory(runner=runner, retries=1, backoff=0.01)
        client = handle.client()
        run_id = client.submit(SPEC).body["run_id"]
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="failed"):
            client.wait(run_id, timeout=30)
        status = client.status(run_id)
        assert status.body["status"] == "failed"
        assert "injected failure" in status.body["error"]
        assert runner.calls == 2  # first attempt + one retry


def test_cli_has_serve_subcommand():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--workers", "1", "--queue-size", "2"]
    )
    assert args.port == 0
    assert args.workers == 1
    assert args.queue_size == 2
    assert args.func.__name__ == "_cmd_serve"
