"""Where a run's on-disk artefacts live, and how an evicted run's go.

A stored run may leave, keyed by its hash:

* ``<events_dir>/<hash>.events.jsonl`` -- the flight recorder's sim channel;
* ``<events_dir>/<hash>.events.host.jsonl`` -- its host-channel sidecar;
* ``<store_dir>/checkpoints/<hash>/`` -- mid-run snapshots.

The CLI, the campaign executor, the worker pool and the service all spell
these paths through this module, so ``repro campaign gc`` and the service's
TTL sweep delete the same files.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "checkpoint_dir",
    "checkpoint_root",
    "events_path",
    "host_events_path",
    "remove_run_artifacts",
]


def events_path(events_dir: str | Path, run_hash: str) -> Path:
    """The sim-channel events file of one run."""
    return Path(events_dir) / f"{run_hash}.events.jsonl"


def host_events_path(path: str | Path) -> Path:
    """The sidecar file holding the host channel of an events log.

    ``run.events.jsonl`` -> ``run.events.host.jsonl``: the sim channel is
    the canonical, backend-independent record; host events (engine worker
    lifecycle, checkpoint writes) are real but machine-specific, so they
    live next door instead of breaking the sim file's byte-identity.
    """
    path = Path(path)
    return path.with_name(path.stem + ".host" + (path.suffix or ".jsonl"))


def checkpoint_root(store_dir: str | Path) -> Path:
    """The directory holding every run's snapshot directory."""
    return Path(store_dir) / "checkpoints"


def checkpoint_dir(root: str | Path, run_hash: str) -> Path:
    """One run's snapshot directory under a :func:`checkpoint_root`."""
    return Path(root) / run_hash


def remove_run_artifacts(
    run_hash: str,
    store_dir: str | Path | None = None,
    events_dir: str | Path | None = None,
) -> int:
    """Delete an evicted run's snapshots and event files; returns the
    number of files removed."""
    removed = 0
    if store_dir is not None:
        directory = checkpoint_dir(checkpoint_root(store_dir), run_hash)
        if directory.is_dir():
            for path in directory.iterdir():
                path.unlink(missing_ok=True)
                removed += 1
            try:
                directory.rmdir()
            except OSError:  # pragma: no cover - non-empty leftovers
                pass
    if events_dir is not None:
        base = events_path(events_dir, run_hash)
        for path in (base, host_events_path(base)):
            if path.exists():
                path.unlink()
                removed += 1
    return removed
