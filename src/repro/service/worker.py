"""The service's worker pool: lease, execute, retry, drain.

Workers are asyncio tasks that drain the :class:`~repro.service.queue.RunQueue`
through the SQLite :class:`~repro.campaign.store.RunStore`'s exactly-once
primitives — the same :meth:`~repro.campaign.store.RunStore.acquire_lease` /
:meth:`~repro.campaign.store.RunStore.release_lease` compare-and-swap pair
the campaign scheduler uses, so a service instance, a campaign drainer and a
second service sharing one store never double-execute a hash.  With a
``lease_ttl`` the pool takes *monitored* leases: the fleet's
:class:`~repro.service.fleet.LeaseKeeper` heartbeats them, a sibling's
reaper reclaims them if this process dies, and every store write this pool
makes is ownership-guarded — a lease lost mid-run means the result is
discarded here, never committed over the reclaimer's.

Execution itself happens off the event loop:

* by default on a lazily-created ``ProcessPoolExecutor`` running the
  campaign engine's picklable :func:`~repro.campaign.executor._pool_worker`
  (per-run ``SIGALRM`` timeout inside the child, warm workers across runs);
* or through an injectable ``runner`` callable on a thread pool — the
  deterministic hook the tests use to block, fail or count executions.

Concurrency respects the host: each multiprocess-engine spec is rewritten
through :func:`repro.engine.effective_engine_workers` with the pool size as
the sibling count, so service slots x engine workers never oversubscribes
the machine (and, since worker count is not part of the content hash, the
rewrite never invalidates stored runs).

``drain()`` is the graceful-SIGTERM half: stop consuming, cancel the worker
tasks, demote every still-claimed row back to ``pending`` (resumable by a
successor process) and tear the executor down without waiting for in-flight
compute. A run whose claim was released is *never* recorded by this pool —
late results from an abandoned child are discarded, which is what keeps the
"never double-executed" contract under restart races.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from typing import Awaitable, Callable

from ..campaign.executor import _pool_worker
from ..campaign.store import Lease, RunStore
from ..engine import effective_engine_workers
from ..errors import ServiceError
from .queue import QueuedRun, RunQueue, RunRegistry

__all__ = ["WorkerPool"]

log = logging.getLogger("repro.service")

#: Signature of an injectable runner: ``(spec_dict, timeout, events_path)``
#: returning the campaign outcome dict ``{"ok", "payload"|"error",
#: "duration_s"}``. The default is the campaign pool worker itself.  When
#: the pool checkpoints (``checkpoint_dir`` set), the runner is called with
#: two extra positional arguments ``(checkpoint_dir, checkpoint_every)``.
Runner = Callable[[dict, float | None, str | None], dict]


def _pool_child_init(server_pid: int) -> None:
    """Runs once in each pool child: stay killable, never outlive the server.

    A forked child inherits the server's asyncio SIGTERM/SIGINT handlers,
    which only poke an event loop the child does not run -- so restore the
    default dispositions. And a SIGKILLed server cannot terminate its pool,
    so the child watches for being re-parented and exits: an orphan would
    keep executing (and checkpointing) a run a sibling has since reclaimed.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    def exit_when_orphaned() -> None:
        while os.getppid() == server_pid:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(
        target=exit_when_orphaned, name="repro-service-parent-watch", daemon=True
    ).start()


class WorkerPool:
    """Bounded pool of queue-draining workers over one run store."""

    def __init__(
        self,
        store: RunStore,
        queue: RunQueue,
        registry: RunRegistry,
        *,
        workers: int = 1,
        run_timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.5,
        runner: Runner | None = None,
        events_dir: str | None = None,
        on_resolved: Callable[[str, str], Awaitable[None]] | None = None,
        lease_ttl: float | None = None,
        max_attempts: int | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
        on_lease_event: Callable[[str], None] | None = None,
    ) -> None:
        if workers <= 0:
            raise ServiceError(f"worker count must be positive, got {workers}")
        if retries < 0:
            raise ServiceError(f"retries must be non-negative, got {retries}")
        if lease_ttl is not None and lease_ttl <= 0:
            raise ServiceError(f"lease ttl must be positive, got {lease_ttl}")
        if max_attempts is not None and max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be at least 1, got {max_attempts}"
            )
        self.store = store
        self.queue = queue
        self.registry = registry
        self.workers = int(workers)
        self.run_timeout = run_timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.runner = runner
        self.events_dir = events_dir
        #: Optional async hook ``(run_hash, status)`` awaited after every
        #: terminal resolution (the server bumps metrics there).
        self.on_resolved = on_resolved
        #: None = legacy unmonitored claims (single-process deployments);
        #: a float arms monitored leases siblings can reclaim on expiry.
        self.lease_ttl = lease_ttl
        #: Distinct-instance failures before a run is quarantined
        #: (None = never quarantine, the legacy behaviour).
        self.max_attempts = max_attempts
        #: Base directory for per-run checkpoint subdirectories; with a
        #: cadence this arms crash-safe mid-run snapshots so a reclaimed
        #: run resumes instead of restarting.
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        #: Optional sync hook for lease lifecycle metrics: called with
        #: ``"renewed"``, ``"lost"`` or ``"quarantined"``.
        self.on_lease_event = on_lease_event
        self.draining = False
        #: Hashes this pool has claimed and not yet resolved — exactly what
        #: a drain demotes, never a sibling process's claims.
        self.inflight: set[str] = set()
        #: The store leases backing ``inflight``, keyed by run hash.
        self.leases: dict[str, Lease] = {}
        self._tasks: list[asyncio.Task] = []
        self._watchers: set[asyncio.Task] = set()
        self._executor: Executor | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker tasks on the running event loop."""
        if self._tasks:
            raise ServiceError("worker pool already started")
        self._tasks = [
            asyncio.create_task(self._worker_loop(), name=f"repro-service-worker-{i}")
            for i in range(self.workers)
        ]

    async def drain(self) -> int:
        """Stop executing, demote in-flight claims; returns the demoted count.

        Idempotent. After a drain the pool accepts no more work; queued
        items simply stay registered as ``pending`` in the store for a
        successor process (their in-memory states turn ``demoted`` so open
        progress streams end cleanly).
        """
        if self.draining:
            return 0
        self.draining = True
        for task in self._tasks + list(self._watchers):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._watchers:
            await asyncio.gather(*self._watchers, return_exceptions=True)
        demoted = 0
        for run_hash in sorted(self.inflight):
            if self.store.release_lease(self.leases.pop(run_hash)):
                demoted += 1
            await self.registry.transition(run_hash, "demoted")
            log.info("drain: demoted in-flight run %s to pending", run_hash)
        self.inflight.clear()
        self.leases.clear()
        # Queued-but-unclaimed runs are already 'pending' in the store; end
        # their streams so clients know to come back after the restart.
        while True:
            try:
                item = self.queue._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            await self.registry.transition(item.run_hash, "demoted")
            demoted += 0  # pending already; nothing to release
        self._shutdown_executor()
        return demoted

    def _shutdown_executor(self) -> None:
        pool = self._executor
        self._executor = None
        if pool is None:
            return
        pool.shutdown(wait=False, cancel_futures=True)
        # A ProcessPoolExecutor cannot cancel a *running* future; its claim
        # is already released, so terminate the children rather than letting
        # an abandoned simulation hold up process exit.
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except (OSError, AttributeError):  # pragma: no cover - best effort
                pass

    # -- execution ---------------------------------------------------------

    def _events_path(self, item: QueuedRun) -> str | None:
        if not item.record_events or self.events_dir is None:
            return None
        return f"{self.events_dir}/{item.run_hash}.events.jsonl"

    def _run_checkpoint_dir(self, run_hash: str) -> str | None:
        if self.checkpoint_dir is None or self.checkpoint_every <= 0:
            return None
        return f"{self.checkpoint_dir}/{run_hash}"

    def _clear_checkpoints(self, run_hash: str) -> None:
        """Drop a committed run's snapshots (they have served their purpose)."""
        directory = self._run_checkpoint_dir(run_hash)
        if directory is None:
            return
        from ..core.checkpoint import CheckpointManager

        try:
            CheckpointManager(directory).clear()
        except OSError:  # pragma: no cover - cleanup is best effort
            log.warning("could not clear checkpoints for %s", run_hash)

    def _guarded_spec(self, spec):
        """Apply the nested-parallelism guard to multiprocess-engine specs."""
        if getattr(spec, "engine", None) != "multiprocess":
            return spec
        return replace(
            spec,
            engine_workers=effective_engine_workers(
                spec.engine_workers, sibling_processes=self.workers
            ),
        )

    async def _execute(self, item: QueuedRun) -> dict:
        """Run one spec off the event loop; never raises (outcome dict)."""
        spec = self._guarded_spec(item.spec)
        loop = asyncio.get_running_loop()
        if self.runner is not None:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-service-runner",
                )
            call = self.runner
        else:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_child_init,
                    initargs=(os.getpid(),),
                )
            call = _pool_worker
        args = [spec.to_dict(), self.run_timeout, self._events_path(item)]
        checkpoint_dir = self._run_checkpoint_dir(item.run_hash)
        if checkpoint_dir is not None:
            # Only extend the call when checkpointing is armed, so injected
            # three-argument runners keep working unchanged.
            args += [checkpoint_dir, self.checkpoint_every]
        return await loop.run_in_executor(self._executor, call, *args)

    async def _resolved(self, run_hash: str, status: str) -> None:
        if self.on_resolved is not None:
            await self.on_resolved(run_hash, status)

    def _lease_event(self, event: str) -> None:
        if self.on_lease_event is not None:
            self.on_lease_event(event)

    def renew_leases(self) -> list[str]:
        """Heartbeat every held lease; returns the hashes whose lease was lost.

        Called by the fleet's :class:`~repro.service.fleet.LeaseKeeper` on
        its cadence.  A failed renewal means a sibling reclaimed the run
        (this process was paused/overloaded past its deadline): ownership is
        dropped immediately so the in-flight result is discarded, and the
        run is watched externally like any other sibling-owned hash.
        """
        lost: list[str] = []
        for run_hash, lease in list(self.leases.items()):
            renewed = self.store.renew_lease(lease)
            if renewed is None:
                lost.append(run_hash)
            else:
                self.leases[run_hash] = renewed
                self._lease_event("renewed")
        return lost

    async def surrender(self, run_hash: str) -> None:
        """Drop ownership of a run whose lease was lost (no store write)."""
        if run_hash not in self.inflight:
            return
        self.inflight.discard(run_hash)
        self.leases.pop(run_hash, None)
        self._lease_event("lost")
        log.warning(
            "lost lease on run %s (reclaimed by a sibling); "
            "discarding the local execution", run_hash,
        )
        await self.registry.transition(run_hash, "external")
        self._watch(run_hash)

    def _watch(self, run_hash: str) -> None:
        watcher = asyncio.create_task(self._watch_external(run_hash))
        self._watchers.add(watcher)
        watcher.add_done_callback(self._watchers.discard)

    async def _worker_loop(self) -> None:
        while not self.draining:
            item = await self.queue.get()
            try:
                await self._run_one(item)
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - defensive: keep draining
                log.exception("worker crashed on run %s", item.run_hash)

    async def _run_one(self, item: QueuedRun) -> None:
        run_hash = item.run_hash
        # A reaper-reclaimed run arrives with its lease already acquired;
        # fresh submissions lease here.
        lease = item.lease
        if lease is None:
            lease = self.store.acquire_lease(run_hash, ttl=self.lease_ttl)
        if lease is None:
            # Someone else owns or finished the hash. Serve 'done' straight
            # from the store; surface a quarantine as the terminal error it
            # is; otherwise watch the store until the external owner
            # resolves it so progress streams still terminate.
            stored = self.store.get(run_hash)
            if stored is not None and stored.status == "done":
                await self.registry.transition(run_hash, "done")
                await self._resolved(run_hash, "cached")
            elif stored is not None and stored.status == "quarantined":
                await self.registry.transition(
                    run_hash, "quarantined", error=stored.error
                )
                await self._resolved(run_hash, "quarantined")
            else:
                await self.registry.transition(run_hash, "external")
                self._watch(run_hash)
            return
        self.inflight.add(run_hash)
        self.leases[run_hash] = lease
        attempt = 1
        await self.registry.transition(run_hash, "running", attempts=lease.attempt)
        if item.resume:
            log.info(
                "resuming reclaimed run %s (attempt %d)", run_hash, lease.attempt
            )
        while True:
            outcome = await self._execute(item)
            if run_hash not in self.inflight:
                # Drained, or the lease was lost while executing: a sibling
                # may already be re-running this hash — discard the late
                # result (its store write would be CAS-rejected anyway).
                log.warning("discarding late result for demoted run %s", run_hash)
                return
            lease = self.leases.get(run_hash, lease)
            if outcome.get("ok"):
                committed = self.store.complete(
                    run_hash, outcome["payload"], outcome.get("duration_s", 0.0),
                    lease=lease,
                )
                if not committed:
                    # The ownership CAS rejected the write: the lease was
                    # reclaimed between our last renewal and the commit.
                    # Exactly-once holds because the store never took our
                    # payload; the reclaimer's is the only one.
                    await self.surrender(run_hash)
                    return
                self.inflight.discard(run_hash)
                self.leases.pop(run_hash, None)
                self._clear_checkpoints(run_hash)
                await self.registry.transition(
                    run_hash, "done", attempts=lease.attempt
                )
                await self._resolved(run_hash, "done")
                return
            if attempt <= self.retries:
                if self.backoff > 0:
                    await asyncio.sleep(self.backoff * 2 ** (attempt - 1))
                if self.draining or run_hash not in self.inflight:
                    return
                attempt += 1
                retried = self.store.retry_lease(self.leases.get(run_hash, lease))
                if retried is None:
                    await self.surrender(run_hash)
                    return
                lease = self.leases[run_hash] = retried
                await self.registry.transition(
                    run_hash, "running", attempts=lease.attempt
                )
                continue
            status = self.store.fail(
                run_hash, outcome.get("error", "unknown error"),
                outcome.get("duration_s"), lease=lease,
                quarantine_after=self.max_attempts,
            )
            if status is None:
                await self.surrender(run_hash)
                return
            self.inflight.discard(run_hash)
            self.leases.pop(run_hash, None)
            if status == "quarantined":
                self._lease_event("quarantined")
                stored = self.store.get(run_hash)
                await self.registry.transition(
                    run_hash, "quarantined", attempts=lease.attempt,
                    error=stored.error if stored is not None else None,
                )
                await self._resolved(run_hash, "quarantined")
                return
            await self.registry.transition(
                run_hash, "failed", attempts=lease.attempt,
                error=outcome.get("error", "unknown error"),
            )
            await self._resolved(run_hash, "failed")
            return

    async def _watch_external(self, run_hash: str, poll_s: float = 0.25) -> None:
        """Poll the store while another process executes ``run_hash``."""
        while not self.draining:
            stored = self.store.get(run_hash)
            if stored is None or stored.status in ("done", "failed", "quarantined"):
                status = stored.status if stored is not None else "failed"
                await self.registry.transition(
                    run_hash, status,
                    error=stored.error if stored is not None else "row vanished",
                )
                await self._resolved(run_hash, status)
                return
            await asyncio.sleep(poll_s)
