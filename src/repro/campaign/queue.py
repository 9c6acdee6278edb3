"""Bounded submission queue and the in-memory run registry.

Two small pieces the :class:`~repro.campaign.pool.WorkerPool` drains and
reports through (the service's, or a campaign batch's):

:class:`RunQueue`
    A bounded FIFO of :class:`QueuedRun` items. ``try_put`` never blocks —
    a full queue is the service's backpressure signal (HTTP 429 with
    ``Retry-After``), because an unbounded queue would just convert
    overload into unbounded memory and unbounded latency.

:class:`RunRegistry`
    The live, in-process view of every run this instance has seen:
    ``queued -> running -> done | failed`` (plus ``demoted`` when a drain
    releases an in-flight claim, and ``external`` while another process
    sharing the store executes the hash). The persistent truth stays in the
    SQLite :class:`~repro.campaign.store.RunStore`; the registry exists so
    progress streams get push-notified transitions instead of polling the
    database, via one shared :class:`asyncio.Condition`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator

from ..errors import ServiceError

__all__ = ["QueuedRun", "RunQueue", "RunRegistry", "RunState", "TERMINAL_STATES"]

#: States a run cannot leave on this server instance. ``demoted`` is
#: terminal *here* (the claim was released for a successor process);
#: ``failed`` is terminal until a client resubmits the hash;
#: ``quarantined`` is terminal everywhere until an operator requeues it.
TERMINAL_STATES = ("done", "failed", "demoted", "quarantined")

#: Every state the registry can report.
RUN_STATES = (
    "queued", "running", "done", "failed", "demoted", "external", "quarantined"
)


@dataclass(frozen=True)
class QueuedRun:
    """One unit of queued work (hash + executable spec + service flags).

    ``lease`` is set on the pool's ``inflight`` entries: the store lease
    the pool holds for the run.
    """

    run_hash: str
    spec: Any
    record_events: bool = False
    lease: Any = None


class RunQueue:
    """Bounded FIFO with a non-blocking producer side.

    The consumer side (:meth:`get`) is a plain awaitable; the producer side
    deliberately has no awaitable variant — the server must answer *now*
    with either 202 (queued) or 429 (full), never park a client connection
    on queue space.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ServiceError(f"queue size must be positive, got {maxsize}")
        self.maxsize = int(maxsize)
        self._queue: asyncio.Queue[QueuedRun] = asyncio.Queue(maxsize=self.maxsize)

    def try_put(self, item: QueuedRun) -> bool:
        """Enqueue without blocking; False means full (backpressure)."""
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            return False
        return True

    async def get(self) -> QueuedRun:
        """Wait for the next queued run (worker side)."""
        return await self._queue.get()

    @property
    def depth(self) -> int:
        """Runs currently waiting (the ``repro_service_queue_depth`` gauge)."""
        return self._queue.qsize()

    @property
    def full(self) -> bool:
        return self._queue.full()


@dataclass
class RunState:
    """The registry's view of one run on this server instance."""

    run_hash: str
    status: str = "queued"
    attempts: int = 0
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (status responses and progress-stream records)."""
        return {
            "run_id": self.run_hash,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "age_s": round(time.time() - self.submitted_at, 6),
        }


class RunRegistry:
    """Tracks run states and wakes progress-stream watchers on transitions."""

    def __init__(self) -> None:
        self._states: dict[str, RunState] = {}
        self._condition: asyncio.Condition = asyncio.Condition()
        #: Monotonic transition counter; watchers use it to detect changes
        #: they slept through instead of comparing state objects.
        self.version = 0

    def get(self, run_hash: str) -> RunState | None:
        return self._states.get(run_hash)

    def active(self, run_hash: str) -> bool:
        """True while this instance is responsible for the hash."""
        state = self._states.get(run_hash)
        return state is not None and not state.terminal

    def mark(
        self,
        run_hash: str,
        status: str,
        *,
        attempts: int | None = None,
        error: str | None = None,
    ) -> RunState:
        """Record a state change *without* waking watchers.

        Synchronous on purpose: the submit handler's check-and-enqueue must
        not yield between reading the registry and writing it, or two
        concurrent submissions of one hash both look "new". Follow up with
        :meth:`notify` (or use :meth:`transition`) once outside the critical
        section.
        """
        if status not in RUN_STATES:
            raise ServiceError(f"unknown run state {status!r}")
        state = self._states.get(run_hash)
        if state is None:
            state = self._states[run_hash] = RunState(run_hash=run_hash)
        state.status = status
        state.updated_at = time.time()
        if attempts is not None:
            state.attempts = int(attempts)
        state.error = error
        return state

    async def notify(self) -> None:
        """Wake every watcher to re-read the registry."""
        async with self._condition:
            self.version += 1
            self._condition.notify_all()

    async def transition(
        self,
        run_hash: str,
        status: str,
        *,
        attempts: int | None = None,
        error: str | None = None,
    ) -> RunState:
        """Record a state change and notify every watcher."""
        state = self.mark(run_hash, status, attempts=attempts, error=error)
        await self.notify()
        return state

    async def watch(
        self, run_hash: str, heartbeat_s: float = 1.0
    ) -> AsyncIterator[RunState | None]:
        """Yield the run's state on every transition (and each heartbeat).

        Yields the current state immediately, then again whenever *any*
        registry transition lands or ``heartbeat_s`` elapses — the consumer
        decides what is worth emitting. ``None`` is yielded on heartbeats
        where the hash is unknown to this instance (e.g. a cached run), so
        streams over store-served hashes still tick. Ends when the state
        turns terminal.
        """
        while True:
            state = self._states.get(run_hash)
            yield state
            if state is not None and state.terminal:
                return
            seen = self.version
            async with self._condition:
                if self.version == seen:
                    try:
                        await asyncio.wait_for(
                            self._condition.wait(), timeout=heartbeat_s
                        )
                    except TimeoutError:
                        pass
