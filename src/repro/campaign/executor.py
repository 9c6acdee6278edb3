"""Campaign execution: the run functions and the campaign scheduler.

:func:`execute_run` (and :func:`_pool_worker`, the picklable entry every
pool process calls) turn a :class:`~repro.campaign.spec.RunSpec` into its
JSON payload.  :func:`run_campaign` drains a
:class:`~repro.campaign.spec.CampaignSpec` through a
:class:`~repro.campaign.store.RunStore`:

* runs already ``done`` in the store are served as cache hits;
* the rest are one :class:`~repro.campaign.pool.Batch` on a
  ``workers``-process pool, through the same lease-driven
  :class:`~repro.campaign.pool.WorkerPool` the simulation service runs
  (payloads are byte-identical for any worker count);
* transient failures retry with exponential backoff up to ``retries`` times;
* a per-run ``timeout`` is enforced with ``SIGALRM`` inside the executing
  process (Unix), so a hung run fails instead of wedging the campaign;
* Ctrl-C, ``SIGTERM`` (or an injected ``stop_after``) cancels gracefully:
  this invocation's in-flight rows are demoted to ``pending``, and a later
  invocation resumes with zero recomputation of completed runs; rows a
  killed invocation left ``running`` are reclaimed once their lease expires.

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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ..config import RunConfig, from_dict
from ..core.checkpoint import CheckpointManager
from ..errors import CampaignError, CheckpointMismatchError
from ..experiments.fig10 import drive_sweep, run_boundary_repetition
from ..theory.boundary import BASELINE_FRACTION, divergence_threshold, moving_average
from ..theory.bounds import upper_bound
from .artifacts import host_events_path
from .pool import Batch
from .report import CampaignReport, campaign_report
from .spec import CampaignSpec, RunSpec
from .store import RunStore

log = logging.getLogger("repro.campaign")

#: progress callback signature: (event, run_hash, spec) with event in
#: {"cached", "start", "done", "failed", "retry", "cancelled", "skipped"}
#: ("skipped": another process held the run and resolved it).
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
    path = Path(events_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    observability.events.write(path, channel="sim")
    observability.events.write(host_events_path(path), channel="host")


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
    _, point = run_boundary_repetition(
        spec.m,
        spec.n_pes,
        spec.density,
        schedule_seed=spec.seed,
        n_steps=spec.n_steps,
        rounds_per_config=spec.rounds_per_config,
    )
    payload = {
        "kind": "boundary",
        "m": spec.m,
        "n_pes": spec.n_pes,
        "density": spec.density,
        "seed": spec.seed,
        "diverged": point is not None,
        "step": None,
        "n": None,
        "c0_ratio": None,
        "theory": None,
        "et_ratio": None,
    }
    if point is not None:
        theory = float(upper_bound(spec.m, point.n))
        payload.update(
            step=int(point.step),
            n=float(point.n),
            c0_ratio=float(point.c0_ratio),
            theory=theory,
            et_ratio=float(point.c0_ratio / theory) if theory > 0 else None,
        )
    return payload


def _execute_probe(
    spec: RunSpec,
    events_path: str | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
) -> dict:
    # Probes drive many short configuration holds; like boundary runs they
    # have no single resumable runner state, so checkpointing is a no-op.
    index, hold = int(spec.probe_index), int(spec.probe_hold)
    observability = _build_events(events_path)
    result = drive_sweep(
        spec.m, spec.n_pes, spec.density, spec.seed, spec.n_steps,
        spec.rounds_per_config, hold=(index, hold), observability=observability,
    )
    _write_events(observability, events_path)
    # Divergence oracle: after holding the level, is the (smoothed) spread
    # still pinned above the balanced-prefix baseline, by the boundary
    # detector's threshold?
    smooth = moving_average(result.spread, 5)
    n_prefix = index + 1
    n_base = min(max(3, int(BASELINE_FRACTION * n_prefix)), n_prefix)
    threshold = divergence_threshold(smooth[:n_base])
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
        "mode": result.meta["mode"],
        # The *resolved* strategy name (the spec's may be None = default).
        "balancer": result.meta.get("balancer", "permanent"),
        "seed": spec.seed,
        # Bit-exact provenance: the stored payload carries the run's SHA-256
        # digest, so a cached service/campaign hit is checkable against a
        # direct api.simulate of the same spec down to the last IEEE bit.
        "digest": result.digest(),
        "steps_run": result.steps_run,
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
    spec = from_dict(RunSpec, spec_dict)
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

    def to_dict(self) -> dict:
        """JSON-serialisable form (the CLI's ``--json`` output): every field
        but ``failures``."""
        data = asdict(self)
        del data["failures"]
        return data


#: The :class:`CampaignSummary` field each settling pool event counts toward
#: (a campaign's pool never quarantines: it sets no ``max_attempts``).
_COUNTED = {
    "done": "completed", "failed": "failed", "cached": "cached", "skipped": "skipped",
}


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
        Process-pool size (at least one).
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
    specs: dict[str, RunSpec] = {}

    def record(event: str, run_hash: str) -> None:
        """Fold one pool event into the summary, metrics and progress."""
        if event in _COUNTED:
            status = _COUNTED[event]
            setattr(summary, status, getattr(summary, status) + 1)
            if status == "failed":
                summary.failures[run_hash] = store.get(run_hash).error
            if metrics is not None:
                metrics.counter(
                    "repro_campaign_runs_total", "campaign runs by outcome"
                ).inc(1, campaign=campaign.name, status=status)
            if metrics is not None and status == "completed":
                metrics.histogram(
                    "repro_campaign_run_duration_seconds",
                    "wall-clock per campaign run",
                ).observe(store.get(run_hash).duration_s, campaign=campaign.name)
        elif event == "retry":
            summary.retries += 1
        elif event != "start":
            return  # lease traffic, not campaign progress
        if progress is not None:
            progress(event, run_hash, specs[run_hash])

    # Cache hits are served here; the rest is one batch through the pool.
    work: dict[str, RunSpec] = {}
    for spec in campaign.runs:
        run_hash = store.register(spec, campaign.name)
        specs[run_hash] = spec
        if store.get(run_hash).status == "done":
            record("cached", run_hash)
        else:
            work[run_hash] = spec
    batch = Batch(
        store, work, on_event=record, stop_after=stop_after, runner=_pool_worker,
        workers=max(1, workers), run_timeout=timeout, retries=retries,
        backoff=backoff, events_dir=events_dir,
    )
    try:
        batch.run()
    except KeyboardInterrupt:
        summary.interrupted = True
    summary.cancelled = len(batch.unsettled)
    summary.interrupted |= stop_after is not None and summary.cancelled > 0
    if progress is not None:
        for run_hash in batch.unsettled:
            progress("cancelled", run_hash, specs[run_hash])
    summary.wall_s = time.perf_counter() - started
    return summary


def drain_report(campaign: CampaignSpec, workers: int = 1) -> CampaignReport:
    """Run ``campaign`` through a fresh in-memory store and return its report.

    The way to Figure 10 or Table 1 without a persistent store: both are
    rendered from the report this returns.  Raises
    :class:`CampaignError` if any run failed.
    """
    with RunStore() as store:
        summary = run_campaign(campaign, store, workers=workers)
        if summary.failed:
            raise CampaignError(
                f"campaign {campaign.name!r}: {summary.failed} run(s) failed: "
                + "; ".join(sorted(summary.failures))
            )
        return campaign_report(store, campaign.name)
