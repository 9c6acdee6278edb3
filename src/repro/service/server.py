"""The asyncio HTTP/JSON simulation service.

One process, one event loop, no web framework: :class:`SimulationService`
binds :func:`asyncio.start_server`, parses HTTP/1.1 by hand (short-lived
``Connection: close`` exchanges), and exposes the campaign engine's
exactly-once run store as a service:

====== =============================== =========================================
Method Route                           Meaning
====== =============================== =========================================
POST   ``/v1/runs``                    Submit a run spec (202 queued,
                                       202 deduplicated, 200 cached,
                                       429 backpressure, 503 draining)
GET    ``/v1/runs/<id>``               Point-in-time status
GET    ``/v1/runs/<id>/stream``        Progress stream: chunked JSONL of state
                                       transitions + heartbeats until terminal
GET    ``/v1/runs/<id>/result``        The stored payload (409 until done)
GET    ``/v1/runs/<id>/events``        The run's flight-recorder JSONL
GET    ``/v1/quarantine``              Quarantined runs + structured errors
GET    ``/healthz``                    Liveness (always 200 while serving)
GET    ``/readyz``                     Readiness (503 + reason when
                                       draining, store down, or saturated)
GET    ``/metrics``                    Prometheus text exposition
====== =============================== =========================================

Submissions are validated against the typed :mod:`repro.api` surface and
keyed by the campaign engine's resolved-config hash, so duplicates — across
clients, restarts, or a concurrently-running campaign sharing the store —
dedupe to one execution. A SIGTERM starts a drain: new submissions get 503
with ``Retry-After``, in-flight claims are demoted back to ``pending``
(never double-executed), open streams are given a grace period to observe
the terminal ``demoted`` state, and the process exits cleanly.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import sqlite3

from ..campaign.artifacts import checkpoint_root, events_path, remove_run_artifacts
from ..campaign.executor import _pool_worker
from ..campaign.pool import DEFAULT_LEASE_TTL, Runner, WorkerPool
from ..campaign.queue import QueuedRun, RunQueue, RunRegistry
from ..campaign.store import RunStore
from ..errors import ConfigurationError, SchemaError, ServiceError
from ..obs import MetricsRegistry, collect_service
from .schemas import error_body, response_body, validate_submission

__all__ = ["ServiceConfig", "SimulationService", "serve"]

log = logging.getLogger("repro.service")

#: Seconds a client is told to wait before retrying a 429/503.
RETRY_AFTER_S = 2

#: Cap on request-head reads (request line + each header line).
_MAX_LINE = 8192

#: Seconds to wait for a complete request head + body before giving up.
_READ_TIMEOUT_S = 10.0


@dataclass
class ServiceConfig:
    """Everything a :class:`SimulationService` needs to run."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (the bound port lands on ``service.port``).
    port: int = 8321
    #: Campaign directory holding the SQLite run store (None = in-memory,
    #: which forfeits restart-resume but is handy for tests and demos).
    store_dir: str | None = None
    #: Concurrent worker slots (the service-level parallelism).
    workers: int = 2
    #: Bounded submission queue; a full queue answers 429.
    queue_size: int = 64
    #: Per-run wall-clock timeout (None = no limit).
    run_timeout: float | None = None
    #: Extra attempts after a failed run before recording ``failed``.
    retries: int = 1
    #: Base of the exponential retry backoff, in seconds.
    backoff: float = 0.5
    #: Directory for flight-recorder event logs (None disables
    #: ``record_events`` submissions).
    events_dir: str | None = None
    #: Campaign name service submissions are registered under.
    campaign: str = "service"
    #: Seconds to let open progress streams finish after a drain.
    drain_grace_s: float = 3.0
    #: Largest accepted request body, in bytes (413 beyond).
    max_body: int = 1 << 20
    #: Lease TTL in seconds: every claim expires this long after its last
    #: renewal, and a sibling's reaper then reclaims it.
    lease_ttl: float = DEFAULT_LEASE_TTL
    #: Lease renewal / reaper cadence; None derives ttl / 3.
    reap_interval: float | None = None
    #: Distinct-instance failures before a run is quarantined terminally.
    max_attempts: int = 3
    #: Checkpoint cadence (steps) for preset runs; 0 disables mid-run
    #: snapshots (reclaimed runs then restart from step 0 — still
    #: digest-identical, just slower).
    checkpoint_every: int = 0
    #: Age in seconds after which done results are evicted by the periodic
    #: store sweep (None disables service-side eviction).
    result_ttl_s: float | None = None
    #: Cadence of the eviction sweep, when ``result_ttl_s`` is set.
    gc_interval_s: float = 60.0
    #: Fleet identity of this instance (None = host-pid-nonce default).
    instance_id: str | None = None
    #: Test seam: run specs through this callable on threads instead of the
    #: process pool (see :data:`repro.campaign.pool.Runner`).
    runner: Runner | None = field(default=None, repr=False)


class SimulationService:
    """The service instance: store + queue + registry + workers + listener."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.store: RunStore | None = None
        self.queue = RunQueue(self.config.queue_size)
        self.registry = RunRegistry()
        self.pool: WorkerPool | None = None
        self.metrics = MetricsRegistry()
        self.port: int | None = None
        self.draining = False
        self._server: asyncio.Server | None = None
        self._stopped = asyncio.Event()
        self._streams = 0
        self._gc_task: asyncio.Task | None = None
        # Pre-create the counters so /metrics exposes zeros from request one.
        self.metrics.counter(
            "repro_service_requests_total", "HTTP requests by route/method/code"
        )
        self.metrics.counter(
            "repro_service_dedup_hits_total",
            "submissions answered by an existing execution of the same hash",
        )
        self.metrics.counter(
            "repro_service_submissions_total", "submissions by outcome"
        )
        self.metrics.counter(
            "repro_service_runs_total", "runs resolved by this instance, by status"
        )
        self.metrics.counter(
            "repro_service_lease_renewals_total",
            "successful lease heartbeat renewals",
        )
        self.metrics.counter(
            "repro_service_lost_leases_total",
            "in-flight runs surrendered after a sibling reclaimed the lease",
        )
        self.metrics.counter(
            "repro_service_reclaimed_runs_total",
            "expired sibling leases reclaimed and resumed by this instance",
        )
        self.metrics.counter(
            "repro_service_quarantined_runs_total",
            "runs moved to the terminal quarantined state by this instance",
        )
        self.metrics.counter(
            "repro_service_evicted_runs_total",
            "stored results evicted by the TTL sweep",
        )
        self.metrics.histogram(
            "repro_service_request_seconds", "request handling latency by route"
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Open the store, start workers, fleet tasks and listener.

        Crash recovery is the reaper's first sweep, which runs at startup:
        it reclaims expired leases (a sibling's live ones are untouched)
        and adopts this campaign's pending rows.
        """
        if self._server is not None:
            raise ServiceError("service already started")
        self.store = RunStore(
            self.config.store_dir, instance_id=self.config.instance_id
        )
        if self.config.events_dir is not None:
            Path(self.config.events_dir).mkdir(parents=True, exist_ok=True)
        checkpoint_dir = None
        if self.config.store_dir is not None and self.config.checkpoint_every > 0:
            checkpoint_dir = str(checkpoint_root(self.config.store_dir))
        self.pool = WorkerPool(
            self.store,
            self.queue,
            self.registry,
            workers=self.config.workers,
            run_timeout=self.config.run_timeout,
            retries=self.config.retries,
            backoff=self.config.backoff,
            runner=self.config.runner or _pool_worker,
            threads=self.config.runner is not None,
            events_dir=self.config.events_dir,
            on_event=self._on_event,
            lease_ttl=self.config.lease_ttl,
            reap_interval=self.config.reap_interval,
            max_attempts=self.config.max_attempts,
            campaign=self.config.campaign,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=self.config.checkpoint_every,
        )
        self.pool.start()
        if self.config.result_ttl_s is not None:
            self._gc_task = asyncio.create_task(
                self._gc_loop(), name="repro-service-gc"
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        log.info(
            "repro service listening on %s:%d (store=%s, workers=%d)",
            self.config.host, self.port,
            self.config.store_dir or ":memory:", self.config.workers,
        )

    async def serve_forever(self) -> None:
        """Run until a drain completes (SIGTERM/SIGINT trigger one)."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.initiate_drain)
                installed.append(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-main-thread loop (the test harness) or a platform
                # without signal support; drains are triggered directly.
                break
        try:
            await self._stopped.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.stop()

    def initiate_drain(self) -> None:
        """Begin a graceful shutdown; safe to call repeatedly."""
        if self.draining:
            return
        self.draining = True
        log.info("drain: rejecting new submissions, demoting in-flight runs")
        asyncio.get_running_loop().create_task(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        assert self.pool is not None
        await self._stop_gc()
        await self.pool.drain()
        # Hold the listener open for the whole grace window — open streams
        # get to observe their terminal record, and late clients get an
        # explicit 503 + Retry-After instead of a connection refusal.
        deadline = time.monotonic() + self.config.drain_grace_s
        while time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        self._stopped.set()

    async def _stop_gc(self) -> None:
        if self._gc_task is not None:
            self._gc_task.cancel()
            try:
                await self._gc_task
            except asyncio.CancelledError:
                pass
            self._gc_task = None

    async def stop(self) -> None:
        """Close the listener, workers and store (idempotent)."""
        await self._stop_gc()
        if self.pool is not None:
            await self.pool.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.store is not None:
            self.store.close()
            self.store = None
        self._stopped.set()

    def _on_event(self, event: str, run_hash: str) -> None:
        """Count the pool's events (:data:`repro.campaign.pool.EventHook`)."""
        if event in ("done", "failed", "quarantined", "cached"):
            self.metrics.counter("repro_service_runs_total").inc(1.0, status=event)
        counter = {
            "renewed": "repro_service_lease_renewals_total",
            "lost": "repro_service_lost_leases_total",
            "reclaimed": "repro_service_reclaimed_runs_total",
            "quarantined": "repro_service_quarantined_runs_total",
        }.get(event)
        if counter is not None:
            self.metrics.counter(counter).inc()

    async def _gc_loop(self) -> None:
        """Periodic result-TTL sweep (the optional service-side eviction)."""
        while True:
            await asyncio.sleep(self.config.gc_interval_s)
            try:
                evicted = self.evict_now()
                if evicted:
                    log.info("gc: evicted %d stored result(s)", len(evicted))
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - keep sweeping
                log.exception("gc sweep failed")

    def evict_now(self) -> list[str]:
        """Evict done results older than the TTL, with their artifacts."""
        assert self.store is not None
        if self.config.result_ttl_s is None:
            return []
        evicted = self.store.evict_older_than(
            self.config.result_ttl_s, campaign=self.config.campaign
        )
        for run_hash in evicted:
            self._cleanup_artifacts(run_hash)
        if evicted:
            self.metrics.counter("repro_service_evicted_runs_total").inc(
                float(len(evicted))
            )
        return evicted

    def _cleanup_artifacts(self, run_hash: str) -> None:
        """Remove an evicted run's event logs and checkpoint snapshots."""
        remove_run_artifacts(run_hash, self.config.store_dir, self.config.events_dir)

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time service state (feeds the ``/metrics`` gauges)."""
        instances = 0
        if self.store is not None:
            try:
                instances = len(self.store.live_instances())
            except sqlite3.Error:  # pragma: no cover - store went away
                instances = 0
        return {
            "queue_depth": self.queue.depth,
            "inflight": len(self.pool.inflight) if self.pool is not None else 0,
            "streams": self._streams,
            "draining": self.draining,
            "instances": instances,
        }

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader, writer), timeout=_READ_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                await self._send_json(
                    writer, 408, error_body("request read timed out", 408)
                )
                return
            if method is None:  # _read_request already answered
                return
            await self._dispatch(writer, method, path, body)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except Exception:  # pragma: no cover - last-ditch 500
            log.exception("unhandled error serving request")
            try:
                await self._send_json(
                    writer, 500, error_body("internal server error", 500)
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str | None, str, bytes]:
        """Parse one HTTP/1.1 request; (None, ..) means already answered."""
        request_line = await reader.readline()
        if not request_line:
            return None, "", b""
        if len(request_line) > _MAX_LINE:
            await self._send_json(
                writer, 414, error_body("request line too long", 414)
            )
            return None, "", b""
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            await self._send_json(
                writer, 400, error_body("malformed request line", 400)
            )
            return None, "", b""
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if len(line) > _MAX_LINE:
                await self._send_json(writer, 431, error_body("header too long", 431))
                return None, "", b""
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            await self._send_json(
                writer, 400, error_body("unreadable Content-Length", 400)
            )
            return None, "", b""
        if length > self.config.max_body:
            await self._send_json(
                writer, 413,
                error_body(
                    f"request body of {length} bytes exceeds the "
                    f"{self.config.max_body}-byte limit", 413,
                ),
            )
            return None, "", b""
        body = await reader.readexactly(length) if length > 0 else b""
        path = target.split("?", 1)[0]
        return method, path, body

    async def _dispatch(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        route, handler, run_id = self._route(method, path)
        started = time.perf_counter()
        status = 500
        try:
            if handler is None:
                status = await self._send_json(
                    writer, 404,
                    error_body(f"no route for {method} {path}", 404),
                )
            elif run_id is not None:
                status = await handler(writer, run_id)
            elif route == "submit":
                status = await handler(writer, body)
            else:
                status = await handler(writer)
        finally:
            elapsed = time.perf_counter() - started
            self.metrics.counter("repro_service_requests_total").inc(
                1.0, route=route, method=method, code=str(status)
            )
            self.metrics.histogram("repro_service_request_seconds").observe(
                elapsed, route=route
            )

    def _route(self, method: str, path: str):
        """Resolve (route label, handler, run id) for a request target."""
        segments = [s for s in path.split("/") if s]
        if path == "/healthz" and method == "GET":
            return "healthz", self._handle_health, None
        if path == "/readyz" and method == "GET":
            return "readyz", self._handle_ready, None
        if path == "/metrics" and method == "GET":
            return "metrics", self._handle_metrics, None
        if path == "/v1/quarantine" and method == "GET":
            return "quarantine", self._handle_quarantine, None
        if segments[:2] == ["v1", "runs"]:
            if len(segments) == 2 and method == "POST":
                return "submit", self._handle_submit, None
            if len(segments) == 3 and method == "GET":
                return "status", self._handle_status, segments[2]
            if len(segments) == 4 and method == "GET":
                sub = segments[3]
                handler = {
                    "result": self._handle_result,
                    "stream": self._handle_stream,
                    "events": self._handle_events,
                }.get(sub)
                if handler is not None:
                    return sub, handler, segments[2]
        return "unknown", None, None

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: dict[str, Any],
        extra_headers: dict[str, str] | None = None,
    ) -> int:
        payload = json.dumps(body, sort_keys=True).encode()
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
            "Connection": "close",
        }
        if extra_headers:
            headers.update(extra_headers)
        writer.write(_head(status, headers) + payload)
        await writer.drain()
        return status

    async def _send_text(
        self, writer: asyncio.StreamWriter, status: int, text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> int:
        payload = text.encode()
        writer.write(
            _head(status, {
                "Content-Type": content_type,
                "Content-Length": str(len(payload)),
                "Connection": "close",
            }) + payload
        )
        await writer.drain()
        return status

    # -- route handlers ----------------------------------------------------

    async def _handle_health(self, writer: asyncio.StreamWriter) -> int:
        return await self._send_json(
            writer, 200,
            response_body({"status": "ok", "draining": self.draining}),
        )

    async def _handle_ready(self, writer: asyncio.StreamWriter) -> int:
        """Honest readiness: 503 + reason whenever a submit would not land.

        Load balancers route on this answer, so each way the instance can
        refuse work is reported as the condition it is — draining, a
        broken/locked run store, or a worker pool saturated past its queue —
        instead of a 200 that merely means "the socket is open".
        """
        reason = None
        if self.draining:
            reason = "service is draining"
        elif self.store is None:
            reason = "run store is not open"
        else:
            try:
                self.store.ping()
            except sqlite3.Error as exc:
                reason = f"run store unreachable: {exc}"
        if reason is None and self.queue.full:
            reason = (
                f"worker pool saturated: submission queue is full "
                f"({self.queue.maxsize} runs)"
            )
        if reason is not None:
            return await self._send_json(
                writer, 503, error_body(reason, 503),
                {"Retry-After": str(RETRY_AFTER_S)},
            )
        return await self._send_json(
            writer, 200,
            response_body({"status": "ready", "queue_depth": self.queue.depth}),
        )

    async def _handle_metrics(self, writer: asyncio.StreamWriter) -> int:
        collect_service(self.metrics, self.snapshot())
        return await self._send_text(
            writer, 200, self.metrics.to_prometheus_text()
        )

    async def _handle_quarantine(self, writer: asyncio.StreamWriter) -> int:
        """List quarantined runs with their structured error payloads."""
        assert self.store is not None
        runs = [
            {
                "run_id": stored.hash,
                "campaign": stored.campaign,
                "attempts": stored.attempts,
                "failed_owners": list(stored.failed_owners),
                "quarantine": stored.error_payload,
            }
            for stored in self.store.quarantined_runs()
        ]
        return await self._send_json(
            writer, 200, response_body({"quarantined": runs, "count": len(runs)})
        )

    async def _handle_submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> int:
        submissions = self.metrics.counter("repro_service_submissions_total")
        if self.draining:
            submissions.inc(1.0, outcome="draining")
            return await self._send_json(
                writer, 503,
                error_body("service is draining; resubmit after restart", 503),
                {"Retry-After": str(RETRY_AFTER_S)},
            )
        try:
            payload = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            submissions.inc(1.0, outcome="rejected")
            return await self._send_json(
                writer, 400, error_body(f"request body is not JSON: {exc}", 400)
            )
        try:
            submission = validate_submission(payload)
        except (ConfigurationError, SchemaError) as exc:
            submissions.inc(1.0, outcome="rejected")
            return await self._send_json(writer, 400, error_body(str(exc), 400))
        if submission.record_events and self.config.events_dir is None:
            submissions.inc(1.0, outcome="rejected")
            return await self._send_json(
                writer, 400,
                error_body(
                    "record_events requested but the service has no events "
                    "directory (start with --events-dir)", 400,
                ),
            )
        run_hash = submission.run_hash
        assert self.store is not None
        self.store.register(
            submission.spec, self.config.campaign, run_hash=run_hash
        )
        stored = self.store.get(run_hash)
        if stored is not None and stored.status == "done":
            # Cache hit: the hash has a payload (this process or any earlier
            # one). First-ever submission of a hash is never counted here.
            self.metrics.counter("repro_service_dedup_hits_total").inc()
            submissions.inc(1.0, outcome="cached")
            return await self._send_json(
                writer, 200,
                response_body(
                    {"run_id": run_hash, "status": "done", "cached": True}
                ),
            )
        if stored is not None and stored.status == "quarantined":
            # Terminal until an operator requeues it; re-submission must not
            # silently re-enter the failure loop.
            submissions.inc(1.0, outcome="quarantined")
            return await self._send_json(
                writer, 409,
                error_body(
                    f"run {run_hash} is quarantined; inspect and requeue "
                    "with `repro runs requeue`", 409,
                    quarantine=stored.error_payload,
                ),
            )
        if self.registry.active(run_hash):
            # In flight here (queued/running) or watched externally: dedupe
            # to the existing execution.
            self.metrics.counter("repro_service_dedup_hits_total").inc()
            submissions.inc(1.0, outcome="deduplicated")
            state = self.registry.get(run_hash)
            return await self._send_json(
                writer, 202,
                response_body(dict(state.to_dict(), deduplicated=True)),
            )
        queued = QueuedRun(
            run_hash=run_hash,
            spec=submission.spec,
            record_events=submission.record_events,
        )
        if not self.queue.try_put(queued):
            submissions.inc(1.0, outcome="backpressure")
            return await self._send_json(
                writer, 429,
                error_body(
                    f"submission queue is full ({self.queue.maxsize} runs); "
                    f"retry after {RETRY_AFTER_S}s", 429,
                ),
                {"Retry-After": str(RETRY_AFTER_S)},
            )
        # mark() is the synchronous half of transition(): no await lands
        # between the active() check above and this write, so concurrent
        # submissions of one hash cannot both enqueue it.
        state = self.registry.mark(run_hash, "queued")
        submissions.inc(1.0, outcome="accepted")
        await self.registry.notify()
        return await self._send_json(
            writer, 202, response_body(state.to_dict())
        )

    def _store_view(self, run_hash: str) -> dict[str, Any] | None:
        """Status dict from the persistent store (for hashes not live here)."""
        assert self.store is not None
        stored = self.store.get(run_hash)
        if stored is None:
            return None
        return {
            "run_id": run_hash,
            "status": stored.status,
            "attempts": stored.attempts,
            "error": stored.error,
        }

    async def _handle_status(
        self, writer: asyncio.StreamWriter, run_hash: str
    ) -> int:
        state = self.registry.get(run_hash)
        if state is not None:
            view = state.to_dict()
            view["queue_depth"] = self.queue.depth
            return await self._send_json(writer, 200, response_body(view))
        view = self._store_view(run_hash)
        if view is None:
            return await self._send_json(
                writer, 404, error_body(f"unknown run {run_hash!r}", 404)
            )
        return await self._send_json(writer, 200, response_body(view))

    async def _handle_result(
        self, writer: asyncio.StreamWriter, run_hash: str
    ) -> int:
        assert self.store is not None
        stored = self.store.get(run_hash)
        if stored is None:
            return await self._send_json(
                writer, 404, error_body(f"unknown run {run_hash!r}", 404)
            )
        if stored.status != "done":
            state = self.registry.get(run_hash)
            status = state.status if state is not None else stored.status
            return await self._send_json(
                writer, 409,
                error_body(
                    f"run {run_hash} is {status!r}, not done"
                    + (f": {stored.error}" if stored.error else ""), 409,
                ),
            )
        return await self._send_json(
            writer, 200,
            response_body({
                "run_id": run_hash,
                "status": "done",
                "attempts": stored.attempts,
                "duration_s": stored.duration_s,
                "payload": stored.payload,
            }),
        )

    async def _handle_events(
        self, writer: asyncio.StreamWriter, run_hash: str
    ) -> int:
        if self.config.events_dir is None:
            return await self._send_json(
                writer, 404, error_body("service records no events", 404)
            )
        path = events_path(self.config.events_dir, run_hash)
        if not path.exists():
            return await self._send_json(
                writer, 404,
                error_body(f"no recorded events for run {run_hash!r}", 404),
            )
        return await self._send_text(
            writer, 200, path.read_text(), content_type="application/x-ndjson"
        )

    async def _handle_stream(
        self, writer: asyncio.StreamWriter, run_hash: str
    ) -> int:
        state = self.registry.get(run_hash)
        stored_view = self._store_view(run_hash)
        if state is None and stored_view is None:
            return await self._send_json(
                writer, 404, error_body(f"unknown run {run_hash!r}", 404)
            )
        writer.write(_head(200, {
            "Content-Type": "application/x-ndjson",
            "Transfer-Encoding": "chunked",
            "Connection": "close",
        }))
        await writer.drain()
        self._streams += 1
        try:
            if state is None:
                # Not live on this instance: one terminal line from the store.
                await self._write_chunk(
                    writer, dict(stored_view, final=True, source="store")
                )
            else:
                async for update in self.registry.watch(run_hash):
                    record = (
                        update.to_dict() if update is not None else
                        {"run_id": run_hash, "status": "unknown"}
                    )
                    record["queue_depth"] = self.queue.depth
                    record["final"] = update is not None and update.terminal
                    await self._write_chunk(writer, record)
                    if self.draining and not record["final"]:
                        # A drained instance resolves nothing further; end
                        # the stream instead of out-living the drain grace.
                        await self._write_chunk(
                            writer,
                            {"run_id": run_hash, "status": "demoted",
                             "final": True, "source": "drain"},
                        )
                        break
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            self._streams -= 1
        return 200

    async def _write_chunk(
        self, writer: asyncio.StreamWriter, record: dict[str, Any]
    ) -> None:
        line = (json.dumps(response_body(record), sort_keys=True) + "\n").encode()
        writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
        await writer.drain()


def _head(status: int, headers: dict[str, str]) -> bytes:
    reason = {
        200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
        408: "Request Timeout", 409: "Conflict", 413: "Payload Too Large",
        414: "URI Too Long", 429: "Too Many Requests",
        431: "Request Header Fields Too Large", 500: "Internal Server Error",
        503: "Service Unavailable",
    }.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def serve(config: ServiceConfig | None = None) -> None:
    """Blocking entry point: run a service until SIGTERM/SIGINT (the CLI)."""

    async def _main() -> None:
        service = SimulationService(config)
        await service.start()
        await service.serve_forever()

    asyncio.run(_main())
