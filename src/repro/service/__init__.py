"""repro.service — simulation-as-a-service over the exactly-once run store.

An asyncio HTTP/JSON API (stdlib only, no web framework) that accepts run
submissions, dedupes them onto the campaign engine's content-hash-keyed
SQLite :class:`~repro.campaign.store.RunStore`, executes them on a bounded
worker pool, and serves status, progress streams, results, flight-recorder
events and Prometheus metrics. See DESIGN.md §13 and the "Simulation
service" section of the README.

Public surface:

:class:`ServiceConfig` / :class:`SimulationService` / :func:`serve`
    Server construction and the blocking CLI entry point.
:class:`ServiceClient`
    A stdlib HTTP client for the API (used by the tests, the performance
    ledger and the CI scenarios — and handy from a notebook), with full-jitter retry
    helpers (:func:`full_jitter_backoff`).
:class:`WorkerPool`
    The scheduler, with the lease keeper and the expired-lease reaper that
    make N instances over one store a self-healing service (DESIGN.md
    §14). It and the queue types live in :mod:`repro.campaign` (campaign
    invocations run the same scheduler) and are re-exported here.
:func:`validate_submission` and friends
    The submission/response schema layer.
"""

from __future__ import annotations

from ..campaign.pool import WorkerPool
from ..campaign.queue import QueuedRun, RunQueue, RunRegistry, RunState, TERMINAL_STATES
from .client import ServiceClient, full_jitter_backoff
from .schemas import (
    SERVICE_KEYS,
    Submission,
    error_body,
    response_body,
    validate_submission,
)
from .server import ServiceConfig, SimulationService, serve

__all__ = [
    "SERVICE_KEYS",
    "TERMINAL_STATES",
    "QueuedRun",
    "RunQueue",
    "RunRegistry",
    "RunState",
    "ServiceClient",
    "ServiceConfig",
    "SimulationService",
    "Submission",
    "WorkerPool",
    "error_body",
    "full_jitter_backoff",
    "response_body",
    "serve",
    "validate_submission",
]
