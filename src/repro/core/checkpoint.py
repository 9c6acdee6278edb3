"""Crash-safe checkpoint/restart for long runs.

A checkpoint is a single pickle file written atomically: serialise to a
temporary file in the target directory, ``fsync`` it, then ``os.replace``
onto the final name (and ``fsync`` the directory so the rename itself is
durable). A run killed mid-write therefore leaves either the previous
complete snapshot or a stray ``.tmp`` file -- never a truncated checkpoint
under the real name.

Restores are bit-identical: the snapshot carries every piece of mutable
runner state (system arrays, holder map, balancer ledger and timing view,
pending migration charges, the neighbour list's build-time positions,
simulated clocks, partial records), and the fault injector is stateless by
construction, so replaying steps ``k+1..n`` after a restore at ``k``
produces the same bytes an uninterrupted run would have. The pair list
itself is not stored: it is kept in canonical order, hence reproducible
from those positions, and forces do not depend on when it was built.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from ..errors import CheckpointError, SchemaError
from .results import RESULT_SCHEMA_VERSION, check_schema_version

#: Bump when the snapshot layout changes incompatibly.
CHECKPOINT_VERSION = 1

_PREFIX = "ckpt-"
_SUFFIX = ".pkl"
_TMP_PREFIX = ".tmp-"


def _fsync_dir(directory: Path) -> None:
    """Make a rename in ``directory`` durable (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointManager:
    """Writes and restores atomic snapshots in one directory.

    Parameters
    ----------
    directory:
        Where snapshots live (created on first save).
    every:
        Cadence in steps for :meth:`due` (0 disables cadence-driven saves;
        explicit :meth:`save` calls still work).
    keep:
        Completed snapshots to retain; older ones are pruned after each
        successful save (at least 1).
    """

    def __init__(self, directory: str | Path, every: int = 0, keep: int = 2) -> None:
        if every < 0:
            raise CheckpointError(f"checkpoint cadence must be >= 0, got {every}")
        if keep < 1:
            raise CheckpointError(f"must keep at least one checkpoint, got {keep}")
        self.directory = Path(directory)
        self.every = int(every)
        self.keep = int(keep)

    # -- cadence -------------------------------------------------------------

    def due(self, step: int) -> bool:
        """Whether the cadence asks for a snapshot after ``step``."""
        return self.every > 0 and step > 0 and step % self.every == 0

    # -- writing -------------------------------------------------------------

    def _path(self, step: int) -> Path:
        return self.directory / f"{_PREFIX}{step:09d}{_SUFFIX}"

    def save(self, step: int, state: dict) -> Path:
        """Atomically write one snapshot; returns its path."""
        if step < 0:
            raise CheckpointError(f"checkpoint step must be >= 0, got {step}")
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self._path(step)
        tmp = self.directory / f"{_TMP_PREFIX}{final.name}.{os.getpid()}"
        payload = {
            "version": CHECKPOINT_VERSION,
            "schema_version": RESULT_SCHEMA_VERSION,
            "step": int(step),
            "state": state,
        }
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CheckpointError(f"cannot write checkpoint {final}: {exc}") from exc
        _fsync_dir(self.directory)
        self._prune()
        return final

    def _prune(self) -> None:
        for stale in self.snapshots()[: -self.keep]:
            stale.unlink(missing_ok=True)
        # Only this process's leftovers: another process may be between the
        # fsync and the rename of its own tmp file in the same directory.
        for tmp in self.directory.glob(f"{_TMP_PREFIX}{_PREFIX}*.{os.getpid()}"):
            tmp.unlink(missing_ok=True)

    # -- reading -------------------------------------------------------------

    def snapshots(self) -> list[Path]:
        """Completed snapshot files, oldest first."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"{_PREFIX}*{_SUFFIX}"))

    def latest_step(self) -> int | None:
        """Step of the newest snapshot (None when the directory is empty)."""
        snaps = self.snapshots()
        if not snaps:
            return None
        return int(snaps[-1].name[len(_PREFIX) : -len(_SUFFIX)])

    def clear(self) -> int:
        """Delete every snapshot (and stray tmp file); returns the count.

        Called once a run's result is durably committed -- the snapshots
        have served their purpose and a later re-execution of the same hash
        (after eviction) must start from step 0, not a stale state.
        """
        removed = 0
        for path in self.snapshots():
            path.unlink(missing_ok=True)
            removed += 1
        if self.directory.is_dir():
            for tmp in self.directory.glob(f"{_TMP_PREFIX}{_PREFIX}*"):
                tmp.unlink(missing_ok=True)
        return removed

    def load_latest(self) -> dict:
        """The newest readable snapshot payload (``version``/``step``/``state``).

        A corrupt newest file (e.g. disk full during a pre-atomic-rename
        filesystem glitch) falls back to the next older snapshot; only when
        no snapshot is loadable does this raise :class:`CheckpointError`.
        """
        snaps = self.snapshots()
        if not snaps:
            raise CheckpointError(f"no checkpoint found in {self.directory}")
        errors: list[str] = []
        for path in reversed(snaps):
            try:
                with open(path, "rb") as fh:
                    payload = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as exc:
                errors.append(f"{path.name}: {exc}")
                continue
            if not isinstance(payload, dict) or "state" not in payload:
                errors.append(f"{path.name}: not a checkpoint payload")
                continue
            if payload.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint {path} has version {payload.get('version')}, "
                    f"this build reads version {CHECKPOINT_VERSION}"
                )
            if "schema_version" in payload:
                try:
                    check_schema_version(payload, source=f"checkpoint {path}")
                except SchemaError as exc:
                    raise CheckpointError(str(exc)) from exc
            return payload
        raise CheckpointError(
            f"no readable checkpoint in {self.directory}: " + "; ".join(errors)
        )
