"""A small stdlib client for the simulation service.

``http.client`` only — the client must work everywhere the service does
(tests, CI scenarios, the performance ledger, a bare notebook) without pulling
in an HTTP library the container may not have. One connection per request,
matching the server's ``Connection: close`` discipline.

Every JSON response is passed through
:func:`repro.core.results.check_schema_version`, so a client built against
this schema fails loudly (not subtly) against a future incompatible server.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Callable, Iterator

from ..core.results import check_schema_version
from ..errors import ServiceError

__all__ = ["ServiceClient", "ServiceResponse", "full_jitter_backoff"]


def full_jitter_backoff(
    attempt: int,
    base: float = 0.2,
    cap: float = 5.0,
    rng: random.Random | None = None,
) -> float:
    """A full-jitter exponential backoff delay for retry ``attempt`` (0-based).

    ``uniform(0, min(cap, base * 2**attempt))`` — the full-jitter variant
    spreads retries across the whole window instead of synchronizing every
    client onto the same schedule, which is exactly what turns one
    recovering instance's backlog into a retry storm.  ``rng`` is
    injectable for deterministic tests.
    """
    window = min(float(cap), float(base) * (2.0 ** attempt))
    return (rng or random).uniform(0.0, window)


def _retry_after_s(response: "ServiceResponse") -> float | None:
    """The server's Retry-After in seconds, when present and readable."""
    for name, value in response.headers.items():
        if name.lower() == "retry-after":
            try:
                return max(0.0, float(value))
            except ValueError:
                return None
    return None


class ServiceResponse:
    """Status code + decoded JSON body of one service exchange."""

    def __init__(self, status: int, body: dict[str, Any], headers: dict[str, str]):
        self.status = status
        self.body = body
        self.headers = headers

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def raise_for_status(self) -> "ServiceResponse":
        if not self.ok:
            raise ServiceError(
                f"service answered {self.status}: "
                f"{self.body.get('error', self.body)}"
            )
        return self


class ServiceClient:
    """Synchronous client for one :class:`~repro.service.SimulationService`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout: float = 30.0,
                 rng: random.Random | None = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Jitter source and sleep hook — injectable so retry/backoff tests
        #: are deterministic and instant.
        self.rng = rng if rng is not None else random.Random()
        self.sleep = sleep

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: dict[str, Any] | None = None) -> ServiceResponse:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            decoded = json.loads(raw) if raw else {}
            if isinstance(decoded, dict) and "schema_version" in decoded:
                check_schema_version(decoded, source=f"{method} {path}")
            return ServiceResponse(
                response.status,
                decoded if isinstance(decoded, dict) else {"body": decoded},
                dict(response.getheaders()),
            )
        finally:
            conn.close()

    def _request_text(self, path: str) -> str:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            text = response.read().decode()
            if response.status != 200:
                raise ServiceError(f"GET {path} answered {response.status}")
            return text
        finally:
            conn.close()

    # -- API ---------------------------------------------------------------

    def health(self) -> ServiceResponse:
        return self._request("GET", "/healthz")

    def ready(self) -> ServiceResponse:
        return self._request("GET", "/readyz")

    def submit(self, submission: dict[str, Any]) -> ServiceResponse:
        """POST a run spec; 202/200 on acceptance, see the server docs."""
        return self._request("POST", "/v1/runs", body=submission)

    def submit_with_retry(
        self,
        submission: dict[str, Any],
        retries: int = 5,
        base: float = 0.2,
        cap: float = 5.0,
    ) -> ServiceResponse:
        """Submit, retrying 429/503 with full-jitter backoff.

        The server's ``Retry-After`` is honoured as the *floor* of each
        delay (never retry sooner than asked); full jitter on top spreads
        a thundering herd of clients across the window instead of letting
        them re-synchronize against a recovering instance.  Other statuses
        (including validation errors and quarantine 409s) return
        immediately — retrying them would never succeed.
        """
        attempt = 0
        while True:
            response = self.submit(submission)
            if response.status not in (429, 503) or attempt >= retries:
                return response
            delay = full_jitter_backoff(attempt, base=base, cap=cap, rng=self.rng)
            floor = _retry_after_s(response)
            if floor is not None:
                delay = floor + full_jitter_backoff(
                    attempt, base=base, cap=cap, rng=self.rng
                )
            self.sleep(delay)
            attempt += 1

    def status(self, run_id: str) -> ServiceResponse:
        return self._request("GET", f"/v1/runs/{run_id}")

    def result(self, run_id: str) -> ServiceResponse:
        return self._request("GET", f"/v1/runs/{run_id}/result")

    def events(self, run_id: str) -> list[dict[str, Any]]:
        """The run's recorded flight-recorder events (JSONL decoded)."""
        text = self._request_text(f"/v1/runs/{run_id}/events")
        return [json.loads(line) for line in text.splitlines() if line.strip()]

    def metrics(self) -> str:
        """Prometheus text exposition from ``/metrics``."""
        return self._request_text("/metrics")

    def quarantine(self) -> list[dict[str, Any]]:
        """Quarantined runs with their structured error payloads."""
        response = self._request("GET", "/v1/quarantine").raise_for_status()
        return response.body.get("quarantined", [])

    def stream(self, run_id: str) -> Iterator[dict[str, Any]]:
        """Yield the run's progress records until the terminal one.

        Reads the chunked ``application/x-ndjson`` stream line by line;
        ``http.client`` de-chunks transparently.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/runs/{run_id}/stream")
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                body = json.loads(raw) if raw else {}
                raise ServiceError(
                    f"stream for {run_id} answered {response.status}: "
                    f"{body.get('error', body)}"
                )
            buffer = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
        finally:
            conn.close()

    def wait(self, run_id: str, timeout: float = 120.0,
             poll_s: float = 0.2, poll_cap_s: float = 2.0) -> dict[str, Any]:
        """Block until the run is done and return the result payload.

        Follows the progress stream when possible, falling back to status
        polling (e.g. when the stream ends on a server drain). Polls back
        off exponentially from ``poll_s`` to ``poll_cap_s`` with full
        jitter, so a thousand waiting clients don't hammer a recovering
        instance in lockstep. Raises :class:`~repro.errors.ServiceError` on
        failure, demotion, quarantine or timeout.
        """
        deadline = time.monotonic() + timeout
        last: dict[str, Any] | None = None
        try:
            for record in self.stream(run_id):
                last = record
                if record.get("final"):
                    break
                if time.monotonic() > deadline:
                    raise ServiceError(f"run {run_id} timed out after {timeout}s")
        except (OSError, http.client.HTTPException):
            last = None  # stream broke; fall through to polling
        poll = 0
        while True:
            if last is not None and last.get("status") in (
                "done", "failed", "demoted", "quarantined"
            ):
                status = last["status"]
            else:
                if time.monotonic() > deadline:
                    raise ServiceError(f"run {run_id} timed out after {timeout}s")
                probe = self.status(run_id)
                if probe.status == 404:
                    raise ServiceError(f"run {run_id} is unknown to the service")
                status = probe.body.get("status")
                last = probe.body
            if status == "done":
                return self.result(run_id).raise_for_status().body
            if status in ("failed", "demoted", "quarantined"):
                raise ServiceError(
                    f"run {run_id} ended {status!r}: {last.get('error')}"
                )
            last = None
            self.sleep(
                full_jitter_backoff(
                    poll, base=poll_s, cap=poll_cap_s, rng=self.rng
                )
            )
            poll += 1
