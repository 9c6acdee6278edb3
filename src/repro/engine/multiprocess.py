"""Multiprocess engine: the force blocks of a pass split across execution units.

Execution model
---------------
An engine of ``w`` units is the calling process (unit 0, the driver) and
``w - 1`` long-lived child processes (units 1 .. w-1). At :meth:`bind` it
allocates two shared-memory segments -- the positions ``(N, 3)`` and one
``(3, N)`` partial-force slot per force block (the block count is a function
of N alone) -- and spawns the children. Per pass the driver writes the
positions, sends one tiny ``("force", record)`` message per child pipe,
computes its own share, then collects the replies. Every unit keeps its own
cached pair list (each decides rebuilds from the same shared positions, so
all rebuild on the same passes), makes one column-major copy of the
positions and takes its blocks of :func:`assign_blocks`: greedy
longest-processing-time on list rows, computed by every unit from the same
rows. A unit writes each block's partial forces into the block's slot and
returns only ``(block, energy, virial, pairs)`` per block, the pass's
``(list rebuilt?, candidates)`` and its compute seconds; a unit with no
block returns an empty list.

Determinism
-----------
A block's partial is computed from the block's rows alone, so its bits do
not depend on which unit computed it. The driver folds the slots and the
scalars in block order with :func:`repro.md.kernels.fold_partials`, the
function the in-process path folds with, so the run digest is the classic
path's for any unit count and any assignment.

Failure
-------
A pass that fails -- a child died, a child's share raised, the driver's own
share raised -- first collects the reply of every child it asked, then
closes the engine (children reaped, segments unlinked) and raises; later
passes raise "closed". No reply is ever left in a pipe for a later pass.
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
from ..md.neighbors import VerletList
from ..obs.events import EventLog, active, recording, scope
from .base import Engine, EngineContext, EnginePass, effective_engine_workers, search


#: The scope of one unit's share; the log holds it as ``worker<unit>.`` + this.
_UNIT_SCOPE = "engine.worker.force_pass"


def _preferred_context() -> mp.context.BaseContext:
    """``fork`` where available (cheap, inherits imports), else ``spawn``."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def assign_blocks(rows: np.ndarray, n_units: int) -> list[np.ndarray]:
    """Each unit's blocks, ascending: greedy longest-processing-time on rows.

    Blocks go largest first (ties to the lower block), each to the unit with
    the fewest rows so far (ties to the lower unit). So no unit holds more
    than ``total / n_units`` plus the largest block, and the result is a
    function of ``rows`` alone: every unit computes the same assignment.
    """
    sizes = np.diff(rows)
    loads = [0] * n_units
    owner = np.empty(len(sizes), dtype=np.int64)
    for k in np.argsort(-sizes, kind="stable"):
        unit = loads.index(min(loads))
        owner[k] = unit
        loads[unit] += int(sizes[k])
    return [np.flatnonzero(owner == unit) for unit in range(n_units)]


def _unit_pass(
    context: EngineContext,
    pair_list: VerletList,
    positions: np.ndarray,
    partials: np.ndarray,
    unit: int,
    n_units: int,
) -> tuple[list[tuple[int, float, float, int]], bool, int, float]:
    """One unit's share of a pass: its blocks' partials, written into their
    slots. Returns ``(blocks, rebuilt, candidates, seconds)``, ``blocks``
    holding ``(block, energy, virial, pairs)`` per computed block."""
    start = time.perf_counter()
    candidates, rebuilt = search(pair_list, positions)
    rows = block_rows(candidates, context.n_particles)
    columns = np.asfortranarray(positions)
    blocks = [
        (int(k), *block_partial(
            columns, candidates[rows[k] : rows[k + 1]],
            context.box_length, context.potential, partials[k],
        )[1:])
        for k in assign_blocks(rows, n_units)[unit]
    ]
    return blocks, rebuilt, len(candidates), time.perf_counter() - start


def _child_main(
    conn: Connection,
    context: EngineContext,
    unit: int,
    n_units: int,
    positions_name: str,
    partials_name: str,
) -> None:
    """Child loop: serve force-pass requests with this unit's blocks.

    Runs until a ``("close",)`` message arrives; replies to every request so
    the driver never blocks on a silent failure -- exceptions travel back as
    ``("error", traceback_text)``. While the driver records host scopes, each
    request asks the child to record the pass's scopes too, into a log of
    its own (never one inherited through ``fork``), which travels back on
    close.
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
                with recording(log if message[1] else None), scope(_UNIT_SCOPE):
                    reply = ("done", *_unit_pass(
                        context, pair_list, positions, partials, unit, n_units
                    ))
            except Exception:
                reply = ("error", traceback.format_exc())
            conn.send(reply)
    finally:
        positions_shm.close()
        partials_shm.close()


class MultiprocessEngine(Engine):
    """Splits each force pass's blocks across the driver and child processes."""

    name = "multiprocess"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        self._requested_workers = workers
        self._units = 0
        self._children: list[mp.process.BaseProcess] = []
        self._pipes: list[Connection] = []
        self._segments: list[shared_memory.SharedMemory] = []
        self._positions: np.ndarray | None = None
        self._partials: np.ndarray | None = None
        self._pair_list: VerletList | None = None

    @property
    def workers(self) -> int:
        """Execution units: the driver and its children (resolved at bind)."""
        if self._units:
            return self._units
        if self._requested_workers is None:
            return effective_engine_workers(None)
        return self._requested_workers

    def _start(self) -> None:
        context: EngineContext = self._context  # bound by Engine.bind
        # Never more units than the run has virtual PEs.
        self._units = max(1, min(self.workers, context.n_pes))
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
            for unit in range(1, self._units):
                ours, theirs = ctx.Pipe()
                process = ctx.Process(
                    target=_child_main,
                    args=(theirs, context, unit, self._units,
                          positions_shm.name, partials_shm.name),
                    daemon=True,
                    name=f"repro-engine-{unit}",
                )
                process.start()
                theirs.close()
                self._children.append(process)
                self._pipes.append(ours)
            self._pair_list = context.pair_list()
        except Exception:
            self._shutdown()
            raise

    def _run_pass(self, context: EngineContext, positions: np.ndarray) -> EnginePass:
        try:
            return self._pass(context, positions)
        except BaseException:
            self.close()
            raise

    def _pass(self, context: EngineContext, positions: np.ndarray) -> EnginePass:
        self._positions[...] = positions
        record = active() is not None
        asked = []
        try:
            for unit, pipe in enumerate(self._pipes, start=1):
                try:
                    pipe.send(("force", record))
                except OSError as exc:
                    raise self._died(unit) from exc
                asked.append(unit)
            with scope(f"worker0.{_UNIT_SCOPE}"):
                shares = [_unit_pass(
                    context, self._pair_list, positions, self._partials, 0, self._units
                )]
        finally:
            replies = {unit: self._recv(unit) for unit in asked}
        for unit, reply in replies.items():
            if reply[0] == "died":
                raise self._died(unit)
            if reply[0] == "error":
                raise EngineError(f"engine unit {unit} failed:\n{reply[1]}")
            shares.append(reply[1:])
        scalars = {block[0]: block[1:] for share in shares for block in share[0]}
        computed = sum(len(share[0]) for share in shares)
        if computed != len(self._partials) or len(scalars) != computed:
            raise EngineError(
                f"units computed {computed} force blocks ({len(scalars)} distinct), "
                f"expected {len(self._partials)}"
            )
        force = fold_partials(
            ((partial, *scalars[k]) for k, partial in enumerate(self._partials)),
            context.n_particles,
        )
        # Every unit watches the same positions: take the driver's list info.
        _, rebuilt, n_candidates, _ = shares[0]
        seconds = np.array([share[3] for share in shares])
        return EnginePass(force, n_candidates, rebuilt, seconds)

    def _recv(self, unit: int):
        try:
            return self._pipes[unit - 1].recv()
        except (EOFError, OSError):
            return ("died",)

    def _died(self, unit: int) -> EngineError:
        process = self._children[unit - 1]
        process.join(timeout=1.0)
        return EngineError(f"engine unit {unit} died (exitcode {process.exitcode})")

    def _shutdown(self) -> None:
        for unit, pipe in enumerate(self._pipes, start=1):
            try:
                pipe.send(("close",))
                reply = pipe.recv()
                if reply[0] == "closed":
                    self._merge_worker_scopes(unit, reply[1])
            except (EOFError, OSError):
                pass  # child already gone; nothing to merge
            finally:
                pipe.close()
        deadline = time.monotonic() + 5.0
        for process in self._children:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._children.clear()
        self._pipes.clear()
        self._pair_list = None
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

    def _merge_worker_scopes(self, unit: int, scopes: list) -> None:
        """Append a child's host scope records to the run's log, each name
        prefixed with ``worker<unit>.``."""
        log = self._observability.events if self._observability is not None else None
        if log is not None:
            log.scopes.extend(
                (f"worker{unit}.{name}", start, seconds) for name, start, seconds in scopes
            )
