"""Multiprocess engine: virtual PEs sharded across worker processes.

Execution model
---------------
At :meth:`bind` the engine allocates three shared-memory blocks — positions
``(N, 3)``, forces ``(N, 3)`` and the cell-owner map ``(n_cells,)`` — and
spawns ``workers`` long-lived processes, each owning the PE shard
``{w, w+W, w+2W, ...}`` (striding balances the spatially-clustered load of
adjacent PEs). Per step the driver writes positions and the owner map into
shared memory, zeroes the force block, and broadcasts one tiny ``("force",
step)`` message per worker pipe. Each worker is one
:class:`~repro.engine.base.SliceCutter`: it keeps its own cached neighbour
list (every worker decides rebuilds from the same shared positions, so they
rebuild on the same passes), cuts its PEs' slices out of it, writes the owned
particles' force rows straight into shared memory (ownership makes the row
sets disjoint, so concurrent writes never overlap), and returns only per-PE
scalars and the pass's ``(list rebuilt?, candidates)`` over its pipe.

Determinism
-----------
A particle's force rows are computed entirely within its owner PE's slice,
so the bits are independent of *which process* ran the slice. The scalar
reductions (energy, virial) are the only order-sensitive part, and those go
through the :class:`~repro.engine.router.DeterministicRouter`: the driver
posts each worker's scalars as they arrive but :meth:`Engine._fold` reduces
them in ``(step, tag, src)`` order — PE rank order — exactly as the
sequential engine does. Hence the SHA-256 run digest is bit-identical to
the sequential backend's, for any worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from multiprocessing import shared_memory
from multiprocessing.connection import Connection

import numpy as np

from ..core.ddm import DecomposedForceResult
from ..errors import ConfigurationError, EngineError
from ..obs.events import EventLog, active, recording, scope
from .base import FORCE_RESULT_TAG, Engine, EngineContext, SliceCutter

#: Default worker cap when the caller does not specify one.
DEFAULT_WORKERS = 4


def _preferred_context() -> mp.context.BaseContext:
    """``fork`` where available (cheap, inherits imports), else ``spawn``."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(
    conn: Connection,
    context: EngineContext,
    pe_ids: list[int],
    positions_name: str,
    forces_name: str,
    owner_name: str,
) -> None:
    """Worker loop: serve force-pass requests for one shard of PEs.

    Runs until a ``("close",)`` message arrives; replies to every request so
    the driver never blocks on a silent failure — exceptions travel back as
    ``("error", step, traceback_text)``. While the main process records
    host scopes, each request asks the worker to record the pass's scopes too,
    into a log of its own (never one inherited through ``fork``), which
    travels back on close.
    """
    log = EventLog()
    positions_shm = shared_memory.SharedMemory(name=positions_name)
    forces_shm = shared_memory.SharedMemory(name=forces_name)
    owner_shm = shared_memory.SharedMemory(name=owner_name)
    try:
        n = context.n_particles
        positions = np.ndarray((n, 3), dtype=np.float64, buffer=positions_shm.buf)
        forces = np.ndarray((n, 3), dtype=np.float64, buffer=forces_shm.buf)
        cutter = SliceCutter(context)
        cell_owner = np.ndarray(
            (cutter.cell_list.n_cells,), dtype=np.int64, buffer=owner_shm.buf
        )
        while True:
            message = conn.recv()
            if message[0] == "close":
                conn.send(("closed", log.scopes))
                return
            if message[0] != "force":  # defensive: protocol error
                conn.send(("error", -1, f"unknown request {message[0]!r}"))
                continue
            step, record = message[1], message[2]
            try:
                with recording(log if record else None), scope(
                    "engine.worker.force_pass"
                ):
                    pieces, list_info = cutter.cut(positions, cell_owner, pe_ids)
                    for piece in pieces:
                        forces[piece.owned_ids] = piece.forces
                    scalars = [
                        (p.pe, p.energy, p.virial, p.seconds, p.n_pairs) for p in pieces
                    ]
                conn.send(("done", step, scalars, list_info))
            except Exception:
                conn.send(("error", step, traceback.format_exc()))
    finally:
        positions_shm.close()
        forces_shm.close()
        owner_shm.close()


class MultiprocessEngine(Engine):
    """Shards the per-PE force pass across long-lived worker processes."""

    name = "multiprocess"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        if workers is not None and workers <= 0:
            raise ConfigurationError(
                f"engine workers must be positive, got {workers}"
            )
        self._requested_workers = workers
        self._workers: list[mp.process.BaseProcess] = []
        self._pipes: list[Connection] = []
        self._shards: list[list[int]] = []
        self._segments: list[shared_memory.SharedMemory] = []
        self._positions: np.ndarray | None = None
        self._forces: np.ndarray | None = None
        self._owner: np.ndarray | None = None

    @property
    def workers(self) -> int:
        """Live worker-process count (resolved at bind time)."""
        if self._workers:
            return len(self._workers)
        requested = self._requested_workers
        if requested is None:
            return min(DEFAULT_WORKERS, os.cpu_count() or 1)
        return requested

    def _start(self) -> None:
        context: EngineContext = self._context  # bound by Engine.bind
        n_workers = max(1, min(self.workers, context.n_pes))
        n = context.n_particles
        n_cells = context.cells_per_side ** 3

        def segment(nbytes: int) -> shared_memory.SharedMemory:
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self._segments.append(shm)
            return shm

        try:
            positions_shm = segment(n * 3 * 8)
            forces_shm = segment(n * 3 * 8)
            owner_shm = segment(n_cells * 8)
            self._positions = np.ndarray((n, 3), np.float64, buffer=positions_shm.buf)
            self._forces = np.ndarray((n, 3), np.float64, buffer=forces_shm.buf)
            self._owner = np.ndarray((n_cells,), np.int64, buffer=owner_shm.buf)

            ctx = _preferred_context()
            for w in range(n_workers):
                shard = list(range(w, context.n_pes, n_workers))
                ours, theirs = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(theirs, context, shard,
                          positions_shm.name, forces_shm.name, owner_shm.name),
                    daemon=True,
                    name=f"repro-engine-{w}",
                )
                process.start()
                theirs.close()
                self._workers.append(process)
                self._pipes.append(ours)
                self._shards.append(shard)
        except Exception:
            self._shutdown()
            raise

    def force_pass(
        self, positions: np.ndarray, cell_owner: np.ndarray, step: int
    ) -> DecomposedForceResult:
        context = self._require_context()
        if positions.shape != (context.n_particles, 3):
            raise EngineError(
                f"positions shape {positions.shape} != "
                f"({context.n_particles}, 3) the engine was bound to"
            )
        with scope("engine.force_pass"):
            self._positions[...] = positions
            self._owner[...] = cell_owner
            self._forces[...] = 0.0
            record = active() is not None
            for pipe in self._pipes:
                pipe.send(("force", step, record))
            replies = [self._recv(w, pipe) for w, pipe in enumerate(self._pipes)]
            for w, reply in enumerate(replies):
                if reply[0] == "error":
                    raise EngineError(
                        f"engine worker {w} failed at step {reply[1]}:\n{reply[2]}"
                    )
                for pe, energy, virial, seconds, n_pairs in reply[2]:
                    self.router.post(
                        step, FORCE_RESULT_TAG, pe, 0,
                        (energy, virial, seconds, n_pairs),
                    )
            # Every worker watches the same positions: take rank 0's list info.
            result = self._fold(np.array(self._forces, copy=True), step, replies[0][3])
        if self._observability is not None and self._observability.metrics is not None:
            metrics = self._observability.metrics
            metrics.counter(
                "repro_engine_force_passes_total",
                "Decomposed force passes executed by the engine",
            ).inc(engine=self.name)
            metrics.gauge(
                "repro_engine_workers",
                "Worker processes backing the execution engine",
            ).set(len(self._workers), engine=self.name)
        return result

    def _lifecycle_entries(self) -> list[tuple[int, dict]]:
        """One row per worker process, carrying its strided PE shard."""
        return [
            (w, {"engine": self.name, "workers": len(self._shards), "shard": shard})
            for w, shard in enumerate(self._shards)
        ]

    def _recv(self, w: int, pipe: Connection):
        try:
            return pipe.recv()
        except (EOFError, OSError) as exc:
            process = self._workers[w]
            raise EngineError(
                f"engine worker {w} died (exitcode {process.exitcode}); "
                f"PE shard {self._shards[w]} is lost"
            ) from exc

    def _shutdown(self) -> None:
        for w, pipe in enumerate(self._pipes):
            try:
                pipe.send(("close",))
                reply = pipe.recv()
                if reply[0] == "closed":
                    self._merge_worker_scopes(w, reply[1])
            except (EOFError, OSError, BrokenPipeError):
                pass  # worker already gone; nothing to merge
            finally:
                pipe.close()
        deadline = time.monotonic() + 5.0
        for process in self._workers:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers.clear()
        self._pipes.clear()
        # Views into the segments must drop before close(): a live ndarray
        # keeps the mmap referenced and unlink would leak it.
        self._positions = self._forces = self._owner = None
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments.clear()

    def _merge_worker_scopes(self, w: int, scopes: list) -> None:
        """Append a worker's host scope records to the run's log, each name
        prefixed with ``worker<w>.``."""
        log = self._observability.events if self._observability is not None else None
        if log is not None:
            log.scopes.extend(
                (f"worker{w}.{name}", start, seconds) for name, start, seconds in scopes
            )
