"""The one scheduler: a lease-driven worker pool over the run store.

Workers are asyncio tasks that drain a :class:`~repro.campaign.queue.RunQueue`
through the SQLite :class:`~repro.campaign.store.RunStore`'s exactly-once
primitives. Every claim is a TTL lease, and two more tasks run beside the
workers:

* the *lease keeper* renews every held lease a few times per TTL. A
  failed renewal means a sibling reclaimed the run (this process was
  paused past its deadline): the pool surrenders it at once, so its late
  result is discarded, never committed over the reclaimer's — the store's
  ownership CAS would refuse it anyway;
* the *reaper* heartbeats this instance, reclaims runs whose lease expired
  (a SIGKILLed or partitioned sibling's; a reclaimed run resumes from its
  latest checkpoint) or quarantines them once ``max_attempts`` distinct
  instances failed them, and adopts its campaign's orphaned ``pending``
  rows. Its first sweep runs at startup: that is how a restarted instance
  recovers what a crash left behind. A service instance reaps the whole
  store; a :class:`Batch` reaps only its own runs. A reclaimed run is held
  (its lease renewed by the keeper) from the moment it is reclaimed until
  a worker gets to it.

So service instances and campaign invocations sharing one store never
double-execute a hash, and any of them finishes a run another one died
holding. The simulation service runs a pool for as long as it serves;
:class:`Batch` runs one for a campaign invocation, until every run has
settled.

Execution happens off the event loop: on a lazily-created
``ProcessPoolExecutor`` running the picklable ``runner`` (the campaign
engine's :func:`~repro.campaign.executor._pool_worker`: per-run
``SIGALRM`` timeout inside the child, warm workers across runs), or with
``threads=True`` on a thread pool in this process — the seam tests use to
block, fail or count executions. Each multiprocess-engine spec is
rewritten through :func:`repro.engine.effective_engine_workers` with the
pool size as the sibling count, so pool slots x engine workers never
oversubscribes the machine (worker count is not part of the content
hash).

``drain()`` is the graceful-shutdown half: stop consuming, cancel the
tasks, demote every still-claimed row back to ``pending`` (resumable by a
successor process) and tear the executor down without waiting for
in-flight compute. A run whose claim was released is *never* recorded by
this pool — late results from an abandoned child are discarded.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import replace
from typing import Callable, Collection

from ..engine import effective_engine_workers
from ..errors import ReproError, ServiceError
from . import artifacts
from .queue import QueuedRun, RunQueue, RunRegistry
from .spec import RunSpec
from .store import RunStore

__all__ = ["DEFAULT_LEASE_TTL", "Batch", "WorkerPool"]

log = logging.getLogger("repro.service")

#: Lease TTL in seconds, shared by the service and campaign invocations: a
#: run a SIGKILLed process held is reclaimed this long after its last
#: renewal (plus at most one reap interval).
DEFAULT_LEASE_TTL = 30.0

#: Renewals per TTL window, the default keeper and reaper cadence. 3 means
#: a lease is refreshed when a third of its TTL has elapsed — two missed
#: renewals still leave slack, so event-loop stalls don't lose leases.
RENEWALS_PER_TTL = 3

#: Signature of a runner: ``(spec_dict, timeout, events_path)`` returning
#: the outcome dict ``{"ok", "payload"|"error", "duration_s"}``.  When the
#: pool checkpoints (``checkpoint_dir`` set), the runner is called with two
#: extra positional arguments ``(checkpoint_dir, checkpoint_every)``.
Runner = Callable[[dict, float | None, str | None], dict]

#: ``on_event(event, run_hash)`` receives: ``start`` / ``retry`` (an attempt
#: begins here), ``done`` / ``failed`` / ``quarantined`` (this pool recorded
#: the outcome), ``cached`` (done before this pool could claim it),
#: ``external`` / ``lost`` (another instance holds the run, or took it from
#: us; the pool watches it), ``skipped`` (that instance resolved it),
#: ``renewed`` (a lease heartbeat landed) and ``reclaimed`` (the reaper took
#: an expired lease).  The reaper reports its quarantines as ``quarantined``.
EventHook = Callable[[str, str], None]


def _pool_child_init(server_pid: int) -> None:
    """Runs once in each pool child: stay killable, never outlive the parent.

    A forked child inherits the parent's asyncio SIGTERM/SIGINT handlers,
    which only poke an event loop the child does not run -- so restore the
    default dispositions. And a SIGKILLed parent cannot terminate its pool,
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
        target=exit_when_orphaned, name="repro-pool-parent-watch", daemon=True
    ).start()


class WorkerPool:
    """Bounded pool of queue-draining workers over one run store."""

    def __init__(
        self,
        store: RunStore,
        queue: RunQueue,
        registry: RunRegistry,
        *,
        runner: Runner,
        threads: bool = False,
        workers: int = 1,
        run_timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.5,
        events_dir: str | None = None,
        on_event: EventHook | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        reap_interval: float | None = None,
        max_attempts: int | None = None,
        campaign: str | None = None,
        scope: Collection[str] | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
    ) -> None:
        if workers <= 0:
            raise ServiceError(f"worker count must be positive, got {workers}")
        if retries < 0:
            raise ServiceError(f"retries must be non-negative, got {retries}")
        if lease_ttl <= 0:
            raise ServiceError(f"lease ttl must be positive, got {lease_ttl}")
        if max_attempts is not None and max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be at least 1, got {max_attempts}"
            )
        self.store = store
        self.queue = queue
        self.registry = registry
        self.runner = runner
        self.threads = threads
        self.workers = int(workers)
        self.run_timeout = run_timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.events_dir = events_dir
        self.on_event = on_event
        self.lease_ttl = float(lease_ttl)
        #: Keeper and reaper cadence.
        self.reap_interval = (
            lease_ttl / RENEWALS_PER_TTL if reap_interval is None else reap_interval
        )
        #: Distinct-instance failures before a run is quarantined
        #: (None = never quarantine).
        self.max_attempts = max_attempts
        #: Whose orphaned pending rows the reaper adopts (None = none: a
        #: :class:`Batch` queues its own runs).
        self.campaign = campaign
        #: The runs the reaper may reclaim (a :class:`Batch`'s own); None =
        #: every run in the store (a service instance).
        self.scope = scope
        #: Base directory for per-run checkpoint subdirectories; with a
        #: cadence this arms crash-safe mid-run snapshots so a reclaimed
        #: run resumes instead of restarting.
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        self.draining = False
        #: Runs this pool has claimed and not yet resolved, each carrying
        #: its current lease — executing, or reclaimed and still queued.
        #: Exactly what a drain demotes, never a sibling process's claims.
        self.inflight: dict[str, QueuedRun] = {}
        self._tasks: list[asyncio.Task] = []
        self._watchers: dict[str, asyncio.Task] = {}
        self._executor: Executor | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the workers, the lease keeper and the reaper."""
        if self._tasks:
            raise ServiceError("worker pool already started")
        self._tasks = [
            asyncio.create_task(self._worker_loop(), name=f"repro-pool-worker-{i}")
            for i in range(self.workers)
        ]
        self._tasks.append(
            asyncio.create_task(self._keep_leases(), name="repro-lease-keeper")
        )
        self._tasks.append(asyncio.create_task(self._reap(), name="repro-reaper"))

    async def drain(self) -> int:
        """Stop executing, demote in-flight claims; returns the demoted count.

        Idempotent. After a drain the pool accepts no more work; queued
        items simply stay registered as ``pending`` in the store for a
        successor process (their in-memory states turn ``demoted`` so open
        progress streams end cleanly).
        """
        self.draining = True
        tasks = self._tasks + list(self._watchers.values())
        self._tasks = []
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        demoted = 0
        for run_hash in sorted(self.inflight):
            if self.store.release_lease(self.inflight[run_hash].lease):
                demoted += 1
            await self.registry.transition(run_hash, "demoted")
            log.info("drain: demoted in-flight run %s to pending", run_hash)
        self.inflight.clear()
        # Queued runs not held above are 'pending' in the store; end their
        # streams so clients know to come back after the restart.
        while True:
            try:
                item = self.queue._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            await self.registry.transition(item.run_hash, "demoted")
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
        return str(artifacts.events_path(self.events_dir, item.run_hash))

    def _run_checkpoint_dir(self, run_hash: str) -> str | None:
        if self.checkpoint_dir is None or self.checkpoint_every <= 0:
            return None
        return str(artifacts.checkpoint_dir(self.checkpoint_dir, run_hash))

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
        if self._executor is None:
            if self.threads:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-pool-runner"
                )
            else:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_child_init,
                    initargs=(os.getpid(),),
                )
        spec = self._guarded_spec(item.spec)
        args = [spec.to_dict(), self.run_timeout, self._events_path(item)]
        checkpoint_dir = self._run_checkpoint_dir(item.run_hash)
        if checkpoint_dir is not None:
            # Only extend the call when checkpointing is armed, so injected
            # three-argument runners keep working unchanged.
            args += [checkpoint_dir, self.checkpoint_every]
        executor = self._executor
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(executor, self.runner, *args)
        except BrokenExecutor as exc:
            # A child died (OOM kill, segfault) and took every future of its
            # pool down with it. Retire that pool -- unless a sibling worker
            # already replaced it -- and let retry and failure accounting
            # take the run like any other failed attempt.
            if self._executor is executor:
                self._executor = None
                executor.shutdown(wait=False, cancel_futures=True)
            log.warning("run %s lost its worker process: %s", item.run_hash, exc)
            return {"ok": False, "error": f"worker process died: {exc!r}"}

    def _event(self, event: str, run_hash: str) -> None:
        if self.on_event is not None:
            self.on_event(event, run_hash)

    async def _keep_leases(self) -> None:
        """Renew every held lease each interval; surrender the lost ones."""
        while True:
            await asyncio.sleep(self.reap_interval)
            try:
                lost = []
                for run_hash, item in list(self.inflight.items()):
                    renewed = self.store.renew_lease(item.lease)
                    if renewed is None:
                        lost.append(run_hash)
                    else:
                        self.inflight[run_hash] = replace(item, lease=renewed)
                        self._event("renewed", run_hash)
                for run_hash in lost:
                    await self.surrender(run_hash)
            except Exception:  # pragma: no cover - keep heartbeating
                log.exception("lease renewal pass failed")

    async def surrender(self, run_hash: str) -> None:
        """Drop ownership of a run whose lease was lost (no store write)."""
        item = self.inflight.pop(run_hash, None)
        if item is None:
            return
        self._event("lost", run_hash)
        log.warning(
            "lost lease on run %s (reclaimed by a sibling); "
            "discarding the local execution", run_hash,
        )
        state = self.registry.get(run_hash)
        if state is not None and state.status == "queued":
            return  # not executing yet: its worker re-claims or watches it
        await self.registry.transition(run_hash, "external")
        self._watch(item)

    async def _reap(self) -> None:
        """Sweep at once (startup recovery), then every interval."""
        while True:
            try:
                await self._sweep()
            except Exception:  # pragma: no cover - keep reaping
                log.exception("reaper sweep failed")
            await asyncio.sleep(self.reap_interval)

    async def _sweep(self) -> None:
        # The instance heartbeat doubles as the fleet-size signal: an
        # instance is "live" while its heartbeat deadline holds.
        self.store.heartbeat_instance(
            ttl=max(self.lease_ttl, self.reap_interval * 3)
        )
        leases, quarantined = self.store.reclaim_expired(
            ttl=self.lease_ttl, quarantine_after=self.max_attempts,
            only=self.scope,
        )
        for stored in quarantined:
            log.warning(
                "quarantined run %s after lease expiry on instances %s",
                stored.hash, list(stored.failed_owners),
            )
            await self.registry.transition(
                stored.hash, "quarantined", error=stored.error
            )
            self._event("quarantined", stored.hash)
        for lease in leases:
            run_hash = lease.run_hash
            held = self.inflight.get(run_hash)
            if held is not None:
                # Our own lease lapsed (a stalled loop) and came back to us.
                self.inflight[run_hash] = replace(held, lease=lease)
                continue
            item = self._stored_item(run_hash)
            state = self.registry.get(run_hash)
            queued = state is not None and state.status == "queued"
            if item is None or not (queued or self.queue.try_put(item)):
                # No local slot: put the run back to pending; a sibling (or
                # a later adoption or watch here) picks it up.
                self.store.release_lease(lease)
                continue
            # Held from now on, so the keeper renews the lease while the run
            # waits for a worker and a drain releases it.
            self.inflight[run_hash] = replace(item, lease=lease)
            log.warning(
                "reclaimed expired run %s (attempt %d)", run_hash, lease.attempt
            )
            await self.registry.transition(
                run_hash, "queued", attempts=lease.attempt
            )
            self._event("reclaimed", run_hash)
        if self.campaign is None:
            return
        # Adopt orphaned pending rows: submitted to an instance that died
        # before leasing them, or released by a drain. Rows live in this
        # registry (queued here, watched) are skipped; a row another live
        # instance queued is leased exactly once anyway.
        for stored in self.store.runs(self.campaign, status="pending"):
            if self.registry.active(stored.hash):
                continue
            item = self._stored_item(stored.hash)
            if item is not None and self.queue.try_put(item):
                await self.registry.transition(stored.hash, "queued")
                log.info("adopted orphaned pending run %s", stored.hash)

    def _stored_item(self, run_hash: str) -> QueuedRun | None:
        """A queue item built from a run's stored spec (None if unusable)."""
        stored = self.store.get(run_hash)
        if stored is None:
            return None
        try:
            spec = stored.run_spec()
        except ReproError:  # pragma: no cover - corrupt row
            log.warning("cannot queue run %s: bad spec", run_hash)
            return None
        return QueuedRun(run_hash=run_hash, spec=spec)

    def _watch(self, item: QueuedRun) -> None:
        run_hash = item.run_hash
        watcher = asyncio.create_task(self._watch_external(item))
        self._watchers[run_hash] = watcher

        def forget(task: asyncio.Task) -> None:
            if self._watchers.get(run_hash) is task:
                del self._watchers[run_hash]

        watcher.add_done_callback(forget)

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
        # A run the reaper reclaimed is already held, its lease renewed while
        # it queued; anything else is leased here.
        held = self.inflight.get(run_hash)
        if held is not None:
            lease = held.lease
        else:
            lease = self.store.acquire_lease(run_hash, ttl=self.lease_ttl)
        if lease is None:
            # Someone else owns or finished the hash. Serve 'done' straight
            # from the store; surface a quarantine as the terminal error it
            # is; otherwise watch the store until the external owner
            # resolves it so progress streams still terminate.
            stored = self.store.get(run_hash)
            if stored is not None and stored.status == "done":
                await self.registry.transition(run_hash, "done")
                self._event("cached", run_hash)
            elif stored is not None and stored.status == "quarantined":
                await self.registry.transition(
                    run_hash, "quarantined", error=stored.error
                )
                self._event("skipped", run_hash)
            else:
                await self.registry.transition(run_hash, "external")
                self._event("external", run_hash)
                self._watch(item)
            return
        # Executing here ends any watch on the hash (our reaper reclaimed it).
        watcher = self._watchers.pop(run_hash, None)
        if watcher is not None:
            watcher.cancel()
        self.inflight[run_hash] = replace(item, lease=lease)
        attempt = 1
        await self.registry.transition(run_hash, "running", attempts=lease.attempt)
        self._event("start", run_hash)
        if held is not None:
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
            lease = self.inflight[run_hash].lease
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
                del self.inflight[run_hash]
                self._clear_checkpoints(run_hash)
                await self.registry.transition(
                    run_hash, "done", attempts=lease.attempt
                )
                self._event("done", run_hash)
                return
            if attempt <= self.retries:
                if self.backoff > 0:
                    await asyncio.sleep(self.backoff * 2 ** (attempt - 1))
                if self.draining or run_hash not in self.inflight:
                    return
                attempt += 1
                retried = self.store.retry_lease(self.inflight[run_hash].lease)
                if retried is None:
                    await self.surrender(run_hash)
                    return
                self.inflight[run_hash] = replace(item, lease=retried)
                await self.registry.transition(
                    run_hash, "running", attempts=retried.attempt
                )
                self._event("retry", run_hash)
                continue
            status = self.store.fail(
                run_hash, outcome.get("error", "unknown error"),
                outcome.get("duration_s"), lease=lease,
                quarantine_after=self.max_attempts,
            )
            if status is None:
                await self.surrender(run_hash)
                return
            del self.inflight[run_hash]
            if status == "quarantined":
                stored = self.store.get(run_hash)
                await self.registry.transition(
                    run_hash, "quarantined", attempts=lease.attempt,
                    error=stored.error if stored is not None else None,
                )
            else:
                await self.registry.transition(
                    run_hash, "failed", attempts=lease.attempt,
                    error=outcome.get("error", "unknown error"),
                )
            self._event(status, run_hash)
            return

    async def _watch_external(self, item: QueuedRun, poll_s: float = 0.25) -> None:
        """Poll the store while another instance holds ``item``'s run.

        Ends when that instance resolves the run, or when the run comes
        back: released to ``pending``, it is queued here again (a reclaim by
        this instance's reaper cancels the watch instead).
        """
        run_hash = item.run_hash
        while not self.draining:
            stored = self.store.get(run_hash)
            if stored is None or stored.status in ("done", "failed", "quarantined"):
                status = stored.status if stored is not None else "failed"
                await self.registry.transition(
                    run_hash, status,
                    error=stored.error if stored is not None else "row vanished",
                )
                self._event("skipped", run_hash)
                return
            if stored.status == "pending" and self.queue.try_put(
                replace(item, lease=None)
            ):
                await self.registry.transition(run_hash, "queued")
                return
            await asyncio.sleep(poll_s)


def _raise_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt


#: Events after which a batch no longer waits on a run.
_SETTLED = ("done", "failed", "quarantined", "cached", "skipped")


class Batch:
    """A fixed set of runs drained to completion by one in-process pool.

    What one campaign invocation runs. :meth:`run` starts a
    :class:`WorkerPool` on a private event loop, queues every run and
    returns once each has *settled*: executed here, found done, or
    resolved by the instance holding it. A run of the batch a dead process
    left ``running`` is reclaimed by the reaper once its lease expires, so
    the batch waits at most one lease TTL plus one reap interval for it.
    The reaper touches no other run in the store.

    It stops early once ``stop_after`` runs completed here. On that stop,
    Ctrl-C or SIGTERM (handled like Ctrl-C, the previous handler restored
    afterwards) the runs this batch holds are released to ``pending``, and
    ``unsettled`` keeps what never settled. ``on_event`` sees the pool's
    events for this batch's runs only, up to the settling one.
    """

    def __init__(
        self,
        store: RunStore,
        runs: dict[str, RunSpec],
        *,
        on_event: EventHook | None = None,
        stop_after: int | None = None,
        **pool_options,
    ) -> None:
        self.store = store
        self.unsettled = dict(runs)
        self.on_event = on_event
        self.stop_after = stop_after
        self.pool_options = pool_options
        self.completed = 0
        self._pool: WorkerPool | None = None
        self._finished: asyncio.Event | None = None

    def run(self) -> None:
        """Drain the batch; re-raises ``KeyboardInterrupt`` after releasing."""
        if not self.unsettled or self.stop_after == 0:
            return
        try:
            previous = signal.signal(signal.SIGTERM, _raise_interrupt)
        except ValueError:  # not the main thread: SIGTERM keeps its handler
            previous = None
        try:
            asyncio.run(self._drain())
        finally:
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)

    async def _drain(self) -> None:
        queue = RunQueue(len(self.unsettled))
        registry = RunRegistry()
        self._finished = asyncio.Event()
        self._pool = pool = WorkerPool(
            self.store, queue, registry, on_event=self._event,
            scope=frozenset(self.unsettled), **self.pool_options,
        )
        for run_hash, spec in self.unsettled.items():
            # Recorded only when the pool has an ``events_dir``.
            queue.try_put(QueuedRun(run_hash=run_hash, spec=spec, record_events=True))
            registry.mark(run_hash, "queued")
        pool.start()
        try:
            await self._finished.wait()
        finally:
            await pool.drain()

    def _event(self, event: str, run_hash: str) -> None:
        if run_hash not in self.unsettled:
            return
        if event in _SETTLED:
            del self.unsettled[run_hash]
        if event == "done":
            self.completed += 1
        if self.on_event is not None:
            self.on_event(event, run_hash)
        if not self.unsettled or (
            self.stop_after is not None and self.completed >= self.stop_after
        ):
            # Take no further run before the drain releases what is held.
            self._pool.draining = True
            self._finished.set()
