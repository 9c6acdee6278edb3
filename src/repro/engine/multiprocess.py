"""Multiprocess engine: the force blocks of a pass split across workers.

Execution model
---------------
At :meth:`bind` the engine allocates two shared-memory segments -- the
positions ``(N, 3)`` and one ``(3, N)`` partial-force slot per force block
(the block count is a function of N alone) -- and spawns ``workers``
long-lived processes. Per pass the main process writes the positions and
sends one tiny ``("force", record)`` message per worker pipe. Each worker
keeps its own cached pair list (every worker decides rebuilds from the same
shared positions, so they rebuild on the same passes), takes a contiguous
range of blocks balanced by list rows (:func:`worker_blocks`), writes each
block's partial forces into its slot and returns only the blocks' scalars,
the pass's ``(list rebuilt?, candidates)`` and its compute seconds.

Determinism
-----------
A block's partial is computed from the block's rows alone, so its bits do
not depend on which process computed it. The main process folds the slots
and the scalars in block order with :func:`repro.md.kernels.fold_partials`,
the function the in-process path folds with, so the run digest is the
classic path's for any worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from multiprocessing import shared_memory
from multiprocessing.connection import Connection

import numpy as np

from ..errors import EngineError
from ..md.kernels import block_partial, block_rows, fold_partials, n_blocks
from ..obs.events import EventLog, active, recording, scope
from .base import Engine, EngineContext, EnginePass, effective_engine_workers, search


def _preferred_context() -> mp.context.BaseContext:
    """``fork`` where available (cheap, inherits imports), else ``spawn``."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def worker_blocks(rows: np.ndarray, worker: int, n_workers: int) -> np.ndarray:
    """The blocks ``worker`` computes: a contiguous range, balanced by rows.

    Each block goes to the worker whose equal share of the list holds the
    block's middle row; shares follow worker order, so concatenating the
    workers' blocks in worker order gives block order.
    """
    doubled_middles = rows[:-1] + rows[1:]
    share = doubled_middles * n_workers // max(2 * int(rows[-1]), 1)
    return np.flatnonzero(np.minimum(share, n_workers - 1) == worker)


def _worker_main(
    conn: Connection,
    context: EngineContext,
    worker: int,
    n_workers: int,
    positions_name: str,
    partials_name: str,
) -> None:
    """Worker loop: serve force-pass requests with this worker's blocks.

    Runs until a ``("close",)`` message arrives; replies to every request so
    the main process never blocks on a silent failure -- exceptions travel
    back as ``("error", traceback_text)``. While the main process records host
    scopes, each request asks the worker to record the pass's scopes too,
    into a log of its own (never one inherited through ``fork``), which
    travels back on close.
    """
    log = EventLog()
    positions_shm = shared_memory.SharedMemory(name=positions_name)
    partials_shm = shared_memory.SharedMemory(name=partials_name)
    try:
        n = context.n_particles
        positions = np.ndarray((n, 3), dtype=np.float64, buffer=positions_shm.buf)
        partials = np.ndarray(
            (n_blocks(n), 3, n), dtype=np.float64, buffer=partials_shm.buf
        )
        pair_list = context.pair_list()
        while True:
            message = conn.recv()
            if message[0] == "close":
                conn.send(("closed", log.scopes))
                return
            if message[0] != "force":  # defensive: protocol error
                conn.send(("error", f"unknown request {message[0]!r}"))
                continue
            try:
                with recording(log if message[1] else None), scope(
                    "engine.worker.force_pass"
                ):
                    start = time.perf_counter()
                    candidates, rebuilt = search(pair_list, positions)
                    rows = block_rows(candidates, n)
                    scalars = [
                        block_partial(
                            positions, candidates[rows[k] : rows[k + 1]],
                            context.box_length, context.potential, partials[k],
                        )[1:]
                        for k in worker_blocks(rows, worker, n_workers)
                    ]
                    seconds = time.perf_counter() - start
                conn.send(("done", scalars, rebuilt, len(candidates), seconds))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        positions_shm.close()
        partials_shm.close()


class MultiprocessEngine(Engine):
    """Splits each force pass's blocks across long-lived worker processes."""

    name = "multiprocess"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        self._requested_workers = workers
        self._workers: list[mp.process.BaseProcess] = []
        self._pipes: list[Connection] = []
        self._segments: list[shared_memory.SharedMemory] = []
        self._positions: np.ndarray | None = None
        self._partials: np.ndarray | None = None

    @property
    def workers(self) -> int:
        """Live worker-process count (resolved at bind time)."""
        if self._workers:
            return len(self._workers)
        if self._requested_workers is None:
            return effective_engine_workers(None)
        return self._requested_workers

    def _start(self) -> None:
        context: EngineContext = self._context  # bound by Engine.bind
        # Never more worker processes than the run has virtual PEs.
        n_workers = max(1, min(self.workers, context.n_pes))
        n = context.n_particles

        def segment(nbytes: int) -> shared_memory.SharedMemory:
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self._segments.append(shm)
            return shm

        try:
            positions_shm = segment(n * 3 * 8)
            partials_shm = segment(n_blocks(n) * 3 * n * 8)
            self._positions = np.ndarray((n, 3), np.float64, buffer=positions_shm.buf)
            self._partials = np.ndarray(
                (n_blocks(n), 3, n), np.float64, buffer=partials_shm.buf
            )
            ctx = _preferred_context()
            for w in range(n_workers):
                ours, theirs = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(theirs, context, w, n_workers,
                          positions_shm.name, partials_shm.name),
                    daemon=True,
                    name=f"repro-engine-{w}",
                )
                process.start()
                theirs.close()
                self._workers.append(process)
                self._pipes.append(ours)
        except Exception:
            self._shutdown()
            raise

    def _run_pass(self, context: EngineContext, positions: np.ndarray) -> EnginePass:
        self._positions[...] = positions
        record = active() is not None
        for pipe in self._pipes:
            pipe.send(("force", record))
        replies = [self._recv(w, pipe) for w, pipe in enumerate(self._pipes)]
        for w, reply in enumerate(replies):
            if reply[0] == "error":
                raise EngineError(f"engine worker {w} failed:\n{reply[1]}")
        scalars = [block for reply in replies for block in reply[1]]
        if len(scalars) != len(self._partials):
            raise EngineError(
                f"workers computed {len(scalars)} force blocks, "
                f"expected {len(self._partials)}"
            )
        force = fold_partials(
            ((partial, *block) for partial, block in zip(self._partials, scalars)),
            context.n_particles,
        )
        # Every worker watches the same positions: take worker 0's list info.
        _, _, rebuilt, n_candidates, _ = replies[0]
        seconds = np.array([reply[4] for reply in replies])
        return EnginePass(force, n_candidates, rebuilt, seconds)

    def _recv(self, w: int, pipe: Connection):
        try:
            return pipe.recv()
        except (EOFError, OSError) as exc:
            process = self._workers[w]
            raise EngineError(
                f"engine worker {w} died (exitcode {process.exitcode})"
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
        self._positions = self._partials = None
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
