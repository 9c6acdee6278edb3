"""Campaign scheduler: process-pool execution with retry, timeout and resume.

:func:`run_campaign` drains a :class:`~repro.campaign.spec.CampaignSpec`
through a :class:`~repro.campaign.store.RunStore`:

* runs whose content hash is already ``done`` in the store are served as
  cache hits (never re-executed);
* the rest execute on a ``ProcessPoolExecutor`` (``workers > 1``) or inline
  (``workers <= 1`` -- the serial path shares the exact same run functions,
  so payloads are byte-identical either way);
* transient failures retry with exponential backoff up to ``retries`` times;
* a per-run ``timeout`` is enforced with ``SIGALRM`` inside the executing
  process (Unix), so a hung run fails instead of wedging the campaign;
* ``KeyboardInterrupt`` (or an injected ``stop_after``) cancels gracefully:
  pending work is dropped, in-flight rows are demoted to ``pending``, and a
  later invocation resumes with zero recomputation of completed runs.

Progress is reported through an optional callback and, when a
:class:`~repro.obs.MetricsRegistry` is supplied, through the
``repro_campaign_*`` counter/histogram families.
"""

from __future__ import annotations

import logging
import signal
import time
import traceback
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from ..config import RunConfig
from ..core.checkpoint import CheckpointManager
from ..engine import effective_engine_workers
from ..errors import CampaignError, CheckpointMismatchError
from ..experiments.fig10 import run_boundary_repetition
from ..theory.boundary import moving_average
from ..theory.bounds import upper_bound
from .spec import CampaignSpec, RunSpec
from .store import RunStore

log = logging.getLogger("repro.campaign")

#: progress callback signature: (event, run_hash, spec) with event in
#: {"cached", "start", "done", "failed", "retry", "cancelled", "skipped"}
#: ("skipped": another process already claimed or completed the run).
ProgressCallback = Callable[[str, str, RunSpec], None]


# -- run functions (execute in the worker process) --------------------------


def _build_events(events_path: str | None):
    """A fresh flight recorder when the campaign asked for one (else None)."""
    if events_path is None:
        return None
    from ..obs import EventLog, Observability

    return Observability(events=EventLog())


def _write_events(observability, events_path: str | None) -> None:
    """Write a run's recorded channels next to the campaign store."""
    if observability is None or observability.events is None:
        return
    from pathlib import Path

    path = Path(events_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    observability.events.write(path, channel="sim")
    observability.events.write(
        path.with_name(path.stem + ".host" + (path.suffix or ".jsonl")),
        channel="host",
    )


def _execute_boundary(
    spec: RunSpec,
    events_path: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> dict:
    # Boundary repetitions run many internal simulations per repetition;
    # there is no single canonical event stream to record (and no single
    # runner state to snapshot), so the flight recorder and mid-run
    # checkpointing are documented no-ops for this run kind.
    outcome = run_boundary_repetition(
        spec.m,
        spec.n_pes,
        spec.density,
        schedule_seed=spec.seed,
        n_steps=spec.n_steps,
        rounds_per_config=spec.rounds_per_config,
        detector_kwargs={"factor": spec.detector_factor, "sustain": spec.detector_sustain},
    )
    payload = {
        "kind": "boundary",
        "m": spec.m,
        "n_pes": spec.n_pes,
        "density": spec.density,
        "seed": spec.seed,
        "diverged": outcome.diverged,
        "step": None,
        "n": None,
        "c0_ratio": None,
        "theory": None,
        "et_ratio": None,
    }
    if outcome.point is not None:
        theory = float(upper_bound(spec.m, outcome.point.n))
        payload.update(
            step=int(outcome.point.step),
            n=float(outcome.point.n),
            c0_ratio=float(outcome.point.c0_ratio),
            theory=theory,
            et_ratio=float(outcome.point.c0_ratio / theory) if theory > 0 else None,
        )
    return payload


def _probe_configurations(schedule, index: int, hold: int):
    """The probe's driven sequence: schedule prefix, then hold the level."""
    last = None
    for i, configuration in enumerate(schedule.configurations()):
        if i > index:
            break
        last = configuration
        yield configuration
    for _ in range(hold):
        yield last


def _execute_probe(
    spec: RunSpec,
    events_path: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> dict:
    # Probes drive many short configuration holds; like boundary runs they
    # have no single resumable runner state, so checkpointing is a no-op.
    from .. import api
    from ..experiments.common import droplets_for, geometry_for, simulation_config_for
    from ..experiments.fig10 import auto_rounds
    from ..workloads.concentration import ConcentrationSchedule

    geometry = geometry_for(spec.m, spec.n_pes, spec.density)
    config = simulation_config_for(geometry, dlb_enabled=True)
    rounds = spec.rounds_per_config
    if rounds is None:
        rounds = auto_rounds(geometry)
    schedule = ConcentrationSchedule(
        n_particles=geometry.n_particles,
        box_length=geometry.box_length,
        n_steps=spec.n_steps,
        n_droplets=droplets_for(geometry),
        seed=spec.seed,
    )
    index, hold = int(spec.probe_index), int(spec.probe_hold)
    observability = _build_events(events_path)
    # Like boundary runs, probes interrogate the permanent-cell protocol's
    # DLB limit: the strategy is part of the experiment, not an env knob.
    result = api.simulate_driven(
        config,
        _probe_configurations(schedule, index, hold),
        rounds_per_config=rounds,
        balancer="permanent",
        observability=observability,
    )
    _write_events(observability, events_path)
    # Divergence oracle: after holding the level, is the (smoothed) spread
    # still pinned above the balanced-prefix baseline?  Thresholds mirror
    # the boundary detector's (factor 2.5 over the baseline median, 5%
    # over the baseline peak).
    smooth = moving_average(result.spread, 5)
    n_prefix = index + 1
    n_base = min(max(3, int(0.2 * n_prefix)), n_prefix)
    baseline = float(np.median(smooth[:n_base]))
    threshold = max(
        2.5 * baseline, baseline + 1e-12, float(np.max(smooth[:n_base])) * 1.05
    )
    tail = smooth[-max(1, hold // 2):]
    trajectory = result.trajectory
    return {
        "kind": "probe",
        "m": spec.m,
        "n_pes": spec.n_pes,
        "density": spec.density,
        "seed": spec.seed,
        "index": index,
        "diverged": bool(np.median(tail) > threshold),
        "n": float(trajectory.n[-1]),
        "c0_ratio": float(trajectory.c0_ratio[-1]),
    }


def _checkpoint_policy(checkpoint_dir: str | None, checkpoint_every: int):
    """A resume-aware checkpoint policy, or None when checkpointing is off.

    ``resume`` is computed from the directory: snapshots present means a
    previous attempt of this exact run hash died mid-flight, and PR 4's
    bit-identical restore guarantees the resumed run's digest matches an
    uninterrupted one.
    """
    if checkpoint_dir is None or checkpoint_every <= 0:
        return None
    from ..api import CheckpointPolicy

    manager = CheckpointManager(checkpoint_dir, every=checkpoint_every)
    return CheckpointPolicy(
        directory=checkpoint_dir,
        every=checkpoint_every,
        resume=bool(manager.snapshots()),
    )


def _simulate_preset(spec: RunSpec, events_path: str | None, checkpoints):
    from .. import api

    observability = _build_events(events_path)
    result = api.simulate(
        spec.preset,
        run=RunConfig(
            steps=spec.n_steps,
            seed=spec.seed,
            record_interval=max(1, spec.n_steps // 50),
            balancer=spec.balancer,
        ),
        dlb=spec.mode == "dlb",
        engine=spec.engine,
        engine_workers=spec.engine_workers,
        observability=observability,
        checkpoints=checkpoints,
    )
    _write_events(observability, events_path)
    return result


def _execute_preset(
    spec: RunSpec,
    events_path: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> dict:
    checkpoints = _checkpoint_policy(checkpoint_dir, checkpoint_every)
    try:
        result = _simulate_preset(spec, events_path, checkpoints)
    except CheckpointMismatchError:
        # Snapshots written under another configuration (e.g. before an
        # upgrade changed the config token) can never resume this run, and
        # every retry would be refused the same way: start over instead.
        log.warning(
            "discarding checkpoints in %s: taken under a different "
            "configuration; re-executing from step 0", checkpoint_dir,
        )
        CheckpointManager(checkpoint_dir).clear()
        result = _simulate_preset(
            spec, events_path, replace(checkpoints, resume=False)
        )
    payload = {
        "kind": "preset",
        "preset": spec.preset,
        "mode": spec.mode,
        # The *resolved* strategy name (the spec's may be None = default).
        "balancer": result.meta.get("balancer", "permanent"),
        "seed": spec.seed,
        # Bit-exact provenance: the stored payload carries the run's SHA-256
        # digest, so a cached service/campaign hit is checkable against a
        # direct api.simulate of the same spec down to the last IEEE bit.
        "digest": result.digest(),
        "steps_run": len(result.records),
    }
    payload.update({key: float(value) for key, value in result.summary().items()})
    return payload


_KIND_EXECUTORS: dict[str, Callable[..., dict]] = {
    "boundary": _execute_boundary,
    "probe": _execute_probe,
    "preset": _execute_preset,
}


def execute_run(
    spec: RunSpec,
    events_path: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> dict:
    """Execute one run synchronously and return its JSON payload.

    ``events_path`` (when given) records the run's flight-recorder sim
    channel there, with host events in a ``.host`` sidecar; boundary runs
    ignore it (no single canonical event stream).  ``checkpoint_dir`` +
    ``checkpoint_every`` arm crash-safe mid-run snapshots for preset runs
    (the service fleet's failover-resume path); existing snapshots in the
    directory make the run resume from the latest one, bit-identically.
    Snapshots a different configuration wrote are deleted with a warning,
    and the run executes from step 0 instead.
    """
    try:
        run = _KIND_EXECUTORS[spec.kind]
    except KeyError:
        raise CampaignError(f"no executor for run kind {spec.kind!r}") from None
    return run(spec, events_path, checkpoint_dir, checkpoint_every)


#: Seconds between repeats of the run-timeout alarm once it has first fired.
_TIMEOUT_REFIRE_S = 0.1


def _raise_timeout(signum, frame):  # pragma: no cover - exercised via alarm
    raise CampaignError("run exceeded its time budget")


def _execute_with_timeout(
    spec: RunSpec,
    timeout: float | None,
    events_path: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> dict:
    """Execute a run under a ``SIGALRM`` deadline (no-op without one)."""
    if timeout is None or not hasattr(signal, "SIGALRM"):
        return execute_run(spec, events_path, checkpoint_dir, checkpoint_every)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        # The alarm repeats: an exception raised while a ``__del__`` or a
        # weakref callback is running is printed and dropped, and the run
        # would go on.  Armed inside the ``try``: a short budget can fire
        # before the next line, and the timer must not outlive this call.
        signal.setitimer(signal.ITIMER_REAL, timeout, _TIMEOUT_REFIRE_S)
        try:
            return execute_run(spec, events_path, checkpoint_dir, checkpoint_every)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        # Disarmed twice: a repeat landing in the block above escapes it with
        # the timer still running, and cannot land in these lines as well.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _pool_worker(
    spec_dict: dict,
    timeout: float | None,
    events_path: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> dict:
    """Top-level (picklable) worker entry: never raises across the pool."""
    spec = RunSpec.from_dict(spec_dict)
    started = time.perf_counter()
    try:
        payload = _execute_with_timeout(
            spec, timeout, events_path, checkpoint_dir, checkpoint_every
        )
        return {"ok": True, "payload": payload,
                "duration_s": time.perf_counter() - started}
    except Exception:
        return {"ok": False, "error": traceback.format_exc(),
                "duration_s": time.perf_counter() - started}


# -- the scheduler ----------------------------------------------------------


@dataclass
class CampaignSummary:
    """What one :func:`run_campaign` invocation did.

    ``completed`` counts runs newly executed to success *this* invocation;
    ``cached`` counts runs served from the store without execution.  A fully
    resumed campaign therefore reports ``completed == 0`` and
    ``cached == len(campaign)``.
    """

    campaign: str
    total: int = 0
    completed: int = 0
    failed: int = 0
    cached: int = 0
    cancelled: int = 0
    skipped: int = 0
    interrupted: bool = False
    wall_s: float = 0.0
    retries: int = 0
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def done(self) -> int:
        """Runs with a payload available after this invocation."""
        return self.completed + self.cached

    def to_dict(self) -> dict:
        """JSON-serialisable form (the CLI's ``--json`` output)."""
        return {
            "campaign": self.campaign,
            "total": self.total,
            "completed": self.completed,
            "failed": self.failed,
            "cached": self.cached,
            "cancelled": self.cancelled,
            "skipped": self.skipped,
            "interrupted": self.interrupted,
            "retries": self.retries,
            "wall_s": self.wall_s,
        }


class _MetricsHook:
    """Optional metrics fan-out (all methods no-ops without a registry)."""

    def __init__(self, registry, campaign: str) -> None:
        self.registry = registry
        self.campaign = campaign

    def count(self, status: str, amount: int = 1) -> None:
        if self.registry is None or amount <= 0:
            return
        self.registry.counter(
            "repro_campaign_runs_total", "campaign runs by outcome"
        ).inc(amount, campaign=self.campaign, status=status)

    def duration(self, seconds: float) -> None:
        if self.registry is None:
            return
        self.registry.histogram(
            "repro_campaign_run_duration_seconds", "wall-clock per campaign run"
        ).observe(float(seconds), campaign=self.campaign)


def run_campaign(
    campaign: CampaignSpec,
    store: RunStore,
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.5,
    progress: ProgressCallback | None = None,
    metrics=None,
    stop_after: int | None = None,
    events_dir: str | None = None,
) -> CampaignSummary:
    """Execute a campaign through the store; returns the invocation summary.

    Parameters
    ----------
    workers:
        Pool size; ``<= 1`` runs inline in this process.
    timeout:
        Per-run wall-clock budget in seconds (None = unbounded).
    retries:
        Extra attempts per run after its first failure.
    backoff:
        Base of the exponential retry delay (``backoff * 2**attempt`` s).
    progress:
        Optional ``(event, run_hash, spec)`` callback.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.
    stop_after:
        Stop scheduling after this many *newly completed* runs (the
        interruption hook the resume tests and the CI smoke job use).
    events_dir:
        Directory for per-run flight-recorder logs; each executed run
        writes ``<run_hash>.events.jsonl`` there (cache hits write
        nothing — their events were recorded when they first ran).
    """
    if retries < 0:
        raise CampaignError(f"retries must be non-negative, got {retries}")
    started = time.perf_counter()
    summary = CampaignSummary(campaign=campaign.name, total=len(campaign))
    hook = _MetricsHook(metrics, campaign.name)

    def pool_args(run_hash: str, spec: RunSpec) -> tuple:
        """``_pool_worker`` arguments; the events path only when recording.

        Kept two-positional without ``events_dir`` so tests (and older
        callers) stubbing ``_pool_worker(spec_dict, timeout)`` still work.
        """
        if events_dir is None:
            return (spec.to_dict(), timeout)
        return (spec.to_dict(), timeout, f"{events_dir}/{run_hash}.events.jsonl")

    def report(event: str, run_hash: str, spec: RunSpec) -> None:
        if progress is not None:
            progress(event, run_hash, spec)

    # Nested-parallelism guard: each pool worker running a multiprocess
    # engine would multiply processes; cap siblings x engine workers to the
    # cpu count. ``engine_workers`` is not part of the content hash (engine
    # results are worker-count independent), so the rewrite never
    # invalidates stored runs.
    specs = [
        replace(
            spec,
            engine_workers=effective_engine_workers(
                spec.engine_workers, sibling_processes=max(1, workers)
            ),
        )
        if spec.engine == "multiprocess"
        else spec
        for spec in campaign.runs
    ]

    # Partition into cache hits and work, preserving campaign order.
    work: list[tuple[str, RunSpec]] = []
    for spec in specs:
        run_hash = store.register(spec, campaign.name)
        stored = store.get(run_hash)
        if stored is not None and stored.status == "done":
            summary.cached += 1
            hook.count("cached")
            report("cached", run_hash, spec)
        else:
            work.append((run_hash, spec))

    # Leases this invocation holds but has not yet resolved, keyed by run
    # hash. Campaign drainers take unmonitored leases (no deadline -- there
    # is no heartbeat task here), so a sibling can never steal them; on a
    # clean interrupt (KeyboardInterrupt / SIGTERM) exactly these rows are
    # demoted back to pending -- never a sibling process's in-flight runs.
    leases: dict = {}

    def claim(run_hash: str, spec: RunSpec) -> bool:
        """Lease a run or report why it cannot be executed here."""
        lease = store.acquire_lease(run_hash)
        if lease is not None:
            leases[run_hash] = lease
            return True
        stored = store.get(run_hash)
        if stored is not None and stored.status == "done":
            summary.cached += 1
            hook.count("cached")
            report("cached", run_hash, spec)
        else:
            summary.skipped += 1
            hook.count("skipped")
            report("skipped", run_hash, spec)
        return False

    def retry(run_hash: str) -> bool:
        """Start another attempt under our lease; False when it was lost."""
        lease = store.retry_lease(leases[run_hash])
        if lease is None:
            leases.pop(run_hash, None)
            return False
        leases[run_hash] = lease
        return True

    def record_success(run_hash: str, spec: RunSpec, payload: dict, duration: float):
        committed = store.complete(
            run_hash, payload, duration, lease=leases.pop(run_hash, None)
        )
        if not committed:
            # Our lease was taken over (a sweep demoted us mid-run); the
            # result belongs to whoever owns the row now, not us.
            summary.skipped += 1
            hook.count("skipped")
            report("skipped", run_hash, spec)
            return
        summary.completed += 1
        hook.count("completed")
        hook.duration(duration)
        report("done", run_hash, spec)

    def record_failure(run_hash: str, spec: RunSpec, error: str, duration):
        recorded = store.fail(
            run_hash, error, duration, lease=leases.pop(run_hash, None)
        )
        if recorded is None:
            summary.skipped += 1
            hook.count("skipped")
            report("skipped", run_hash, spec)
            return
        summary.failed += 1
        summary.failures[run_hash] = error
        hook.count("failed")
        report("failed", run_hash, spec)

    def reached_stop() -> bool:
        return stop_after is not None and summary.completed >= stop_after

    def _on_sigterm(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    # Treat SIGTERM like Ctrl-C: the except/finally below demotes the
    # in-flight run to pending so a later invocation resumes it. Installing
    # a handler only works on the main thread; elsewhere SIGTERM keeps its
    # default disposition.
    previous_sigterm = None
    if hasattr(signal, "SIGTERM"):
        try:
            previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:
            previous_sigterm = None
    try:
        if workers <= 1:
            for run_hash, spec in work:
                if reached_stop():
                    summary.cancelled += 1
                    report("cancelled", run_hash, spec)
                    continue
                if not claim(run_hash, spec):
                    continue
                attempt = 0
                report("start", run_hash, spec)
                while True:
                    outcome = _pool_worker(*pool_args(run_hash, spec))
                    if outcome["ok"]:
                        record_success(run_hash, spec, outcome["payload"],
                                       outcome["duration_s"])
                        break
                    if attempt < retries and retry(run_hash):
                        attempt += 1
                        summary.retries += 1
                        report("retry", run_hash, spec)
                        if backoff > 0:
                            time.sleep(backoff * 2 ** (attempt - 1))
                        continue
                    record_failure(run_hash, spec, outcome["error"],
                                   outcome["duration_s"])
                    break
        else:
            _run_pool(campaign, store, work, workers, timeout, retries, backoff,
                      summary, hook, report, reached_stop, claim, retry,
                      record_success, record_failure, pool_args)
    except KeyboardInterrupt:
        summary.interrupted = True
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        # Exactly the leases this invocation still holds (cancelled futures,
        # the interrupted run) are released back to pending, so a resume
        # re-executes exactly those -- and only rows we still own.
        for lease in leases.values():
            store.release_lease(lease)
        summary.wall_s = time.perf_counter() - started
    if stop_after is not None and summary.cancelled:
        summary.interrupted = True
    return summary


def _run_pool(campaign, store, work, workers, timeout, retries, backoff,
              summary, hook, report, reached_stop, claim, retry,
              record_success, record_failure, pool_args) -> None:
    """The parallel drain loop (extracted for readability)."""
    pending: dict = {}
    retry_at: list[tuple[float, str, RunSpec, int]] = []
    queue = list(work)
    attempts: dict[str, int] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            while queue or pending or retry_at:
                if reached_stop():
                    summary.cancelled += len(queue) + len(pending) + len(retry_at)
                    for run_hash, spec in queue:
                        report("cancelled", run_hash, spec)
                    queue.clear()
                    retry_at.clear()
                    for future in pending:
                        future.cancel()
                    break
                now = time.monotonic()
                due = [entry for entry in retry_at if entry[0] <= now]
                retry_at[:] = [entry for entry in retry_at if entry[0] > now]
                for _, run_hash, spec, attempt in due:
                    queue.append((run_hash, spec))
                    attempts[run_hash] = attempt
                while queue and len(pending) < workers:
                    run_hash, spec = queue.pop(0)
                    if run_hash in attempts:
                        # Retry of a run this invocation already owns; a
                        # lost lease means the row was swept out from under
                        # us and the retry must not run here.
                        if not retry(run_hash):
                            summary.skipped += 1
                            hook.count("skipped")
                            report("skipped", run_hash, spec)
                            continue
                    elif not claim(run_hash, spec):
                        continue
                    report("start", run_hash, spec)
                    future = pool.submit(_pool_worker, *pool_args(run_hash, spec))
                    pending[future] = (run_hash, spec)
                if not pending:
                    if retry_at:
                        time.sleep(min(0.05, max(0.0, retry_at[0][0] - now)))
                    continue
                finished, _ = wait(pending, timeout=0.1, return_when=FIRST_COMPLETED)
                for future in finished:
                    run_hash, spec = pending.pop(future)
                    outcome = future.result()
                    if outcome["ok"]:
                        record_success(run_hash, spec, outcome["payload"],
                                       outcome["duration_s"])
                        continue
                    attempt = attempts.get(run_hash, 0)
                    if attempt < retries:
                        attempts[run_hash] = attempt + 1
                        summary.retries += 1
                        report("retry", run_hash, spec)
                        delay = backoff * 2 ** attempt if backoff > 0 else 0.0
                        retry_at.append(
                            (time.monotonic() + delay, run_hash, spec, attempt + 1)
                        )
                    else:
                        record_failure(run_hash, spec, outcome["error"],
                                       outcome["duration_s"])
        except KeyboardInterrupt:
            for future in pending:
                future.cancel()
            summary.cancelled += len(queue) + len(pending) + len(retry_at)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
