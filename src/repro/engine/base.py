"""Execution-engine protocol: where a run's force pass executes.

An :class:`Engine` runs the one force pass of :mod:`repro.md.kernels`: the
canonical pair list cut into fixed force blocks, each block reduced to a
partial force array, energy and virial, and the partials folded in block
order by :func:`~repro.md.kernels.fold_partials`. Block size and fold order
alone fix the bits, so every engine, at any worker count, gives the classic
path's forces and run digest. Backends differ only in *where* the blocks
are computed: the sequential engine runs them in-process; the multiprocess
engine splits them, balanced by list rows, across its driver and child
processes.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError, EngineError
from ..md.kernels import ForceResult
from ..md.neighbors import VerletList
from ..md.potential import LennardJones
from ..obs.events import scope

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..obs import Observability

#: Engine names accepted by :func:`create_engine` and the CLI ``--engine``.
ENGINE_NAMES = ("sequential", "multiprocess")


@dataclass(frozen=True)
class EngineContext:
    """The picklable workload description an engine is bound to.

    Everything a worker process needs to keep its own pair list: no live
    objects, only plain values, so the context crosses a ``spawn`` boundary
    unchanged. ``skin`` is the run's :class:`~repro.config.RunConfig` field;
    it sets each unit's list-rebuild schedule, never the result.
    """

    n_particles: int
    n_pes: int
    box_length: float
    potential: LennardJones
    skin: float = 0.4

    def __post_init__(self) -> None:
        if self.n_particles <= 0:
            raise ConfigurationError(
                f"n_particles must be positive, got {self.n_particles}"
            )
        if self.n_pes <= 0:
            raise ConfigurationError(f"n_pes must be positive, got {self.n_pes}")
        if self.skin <= 0:
            raise ConfigurationError(f"engine context needs skin > 0, got {self.skin}")

    def pair_list(self) -> VerletList:
        """A fresh cached list for one execution unit.

        Canonical order, ``r_c + skin``, rebuilt by the ``skin / 2``
        displacement test on the shared positions alone -- the classic
        path's policy, so every unit rebuilds on the same passes as it. A
        fresh unit (e.g. after a resume) just builds on its first pass; the
        blocks do not depend on when the list was built.
        """
        return VerletList(self.box_length, self.potential.cutoff, self.skin)


def search(pair_list: VerletList, positions: np.ndarray) -> tuple[np.ndarray, bool]:
    """The pass's candidates and whether getting them rebuilt the list."""
    builds = pair_list.stats.rebuilds
    candidates = pair_list.candidates(positions)
    return candidates, pair_list.stats.rebuilds > builds


@dataclass(frozen=True)
class EnginePass:
    """One engine force pass: the folded result and how it was computed."""

    force: ForceResult
    #: Length of the candidate list the pass filtered.
    n_candidates: int
    #: Whether the pass rebuilt that list (as opposed to reusing it).
    list_rebuilt: bool
    #: Compute seconds of each execution unit (one for the sequential
    #: engine; the driver's share first, then one per child process, for
    #: the multiprocess engine); named so because ledger/trace.py sums it.
    per_pe_seconds: np.ndarray


class Engine(abc.ABC):
    """Pluggable executor of the force pass.

    Lifecycle: construct → :meth:`bind` to one workload → any number of
    :meth:`force_pass` calls → :meth:`close` (or use as a context manager).
    Binding is one-shot on purpose: a multiprocess engine sizes its shared
    memory at bind time, and silently rebinding to a different workload is
    exactly the class of mistake :class:`~repro.errors.EngineError` exists
    to surface.
    """

    #: Backend name (stable identifier used by CLI/results metadata).
    name: str = "base"

    def __init__(self) -> None:
        self._context: EngineContext | None = None
        self._closed = False
        self._observability: "Observability | None" = None
        #: Force passes run so far (stamped on the ``engine.stop`` events).
        self._passes = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def context(self) -> EngineContext | None:
        """The bound workload, or ``None`` before :meth:`bind`."""
        return self._context

    @property
    def workers(self) -> int:
        """Execution units computing this engine's blocks (1 in-process)."""
        return 1

    def bind(self, context: EngineContext) -> None:
        """Attach the engine to one workload; idempotent for equal contexts."""
        if self._closed:
            raise EngineError(f"engine {self.name!r} is closed")
        if self._context is not None:
            if self._context != context:
                raise EngineError(
                    f"engine {self.name!r} is already bound to a different "
                    f"workload ({self._context.n_particles} particles / "
                    f"{self._context.n_pes} PEs); create one engine per workload"
                )
            return
        self._context = context
        self._start()
        self._emit_lifecycle("engine.start")

    def attach_observability(self, observability: "Observability | None") -> None:
        """Give the engine a sink for metrics and event records (nullable).

        Attach *before* :meth:`bind` so the bind-time ``engine.start``
        lifecycle events reach the flight recorder.
        """
        self._observability = observability

    def close(self) -> None:
        """Release backend resources; further passes raise ``EngineError``."""
        if not self._closed:
            if self._context is not None:
                self._emit_lifecycle("engine.stop", passes=self._passes)
            self._closed = True
            self._shutdown()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _emit_lifecycle(self, kind: str, **fields) -> None:
        """One host-channel record per execution unit, in unit order."""
        obs = self._observability
        events = obs.events if obs is not None else None
        if events is None:
            return
        for worker in range(self.workers):
            events.emit_host(
                0, kind, src=worker, engine=self.name, workers=self.workers, **fields
            )

    # -- the pass ------------------------------------------------------------

    def force_pass(self, positions: np.ndarray) -> EnginePass:
        """Run one force pass over the ``(N, 3)`` current configuration."""
        context = self._require_context()
        if positions.shape != (context.n_particles, 3):
            raise EngineError(
                f"positions shape {positions.shape} != "
                f"({context.n_particles}, 3) the engine was bound to"
            )
        with scope("engine.force_pass"):
            result = self._run_pass(context, positions)
        self._passes += 1
        if self._observability is not None and self._observability.metrics is not None:
            self._observability.metrics.counter(
                "repro_engine_force_passes_total",
                "Force passes executed by the engine",
            ).inc(engine=self.name)
        return result

    # -- backend hooks -----------------------------------------------------

    def _start(self) -> None:
        """Backend hook: allocate resources for the bound context."""

    def _shutdown(self) -> None:
        """Backend hook: release resources (must be safe to call once)."""

    @abc.abstractmethod
    def _run_pass(self, context: EngineContext, positions: np.ndarray) -> EnginePass:
        """Backend hook: compute and fold every block of one pass."""

    def _require_context(self) -> EngineContext:
        if self._closed:
            raise EngineError(f"engine {self.name!r} is closed")
        if self._context is None:
            raise EngineError(f"engine {self.name!r} used before bind()")
        return self._context


def create_engine(
    engine: "str | Engine | None",
    workers: int | None = None,
) -> "Engine | None":
    """Resolve an engine request to an instance.

    Accepts a backend name (``workers`` sizes the multiprocess backend;
    ``None`` picks ``effective_engine_workers(None)``), an already-constructed
    :class:`Engine` (returned as-is; ``workers`` must then be ``None``), or
    ``None`` (no engine: the runner keeps its classic in-process force path).
    """
    if engine is None:
        if workers is not None:
            raise ConfigurationError("engine workers given without an engine")
        return None
    if isinstance(engine, Engine):
        if workers is not None:
            raise ConfigurationError(
                "pass workers via the engine's own constructor, not create_engine"
            )
        return engine
    if engine not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine {engine!r} (choose from {ENGINE_NAMES})"
        )
    if workers is not None and workers <= 0:
        raise ConfigurationError(f"engine workers must be positive, got {workers}")
    if engine == "sequential":
        from .sequential import SequentialEngine

        return SequentialEngine()
    from .multiprocess import MultiprocessEngine

    return MultiprocessEngine(workers=workers)


def effective_engine_workers(
    requested: int | None,
    sibling_processes: int = 1,
    cpu_count: int | None = None,
) -> int:
    """Worker count after the nested-parallelism guard.

    ``sibling_processes`` is how many peer processes (e.g. campaign pool
    workers) will each run an engine concurrently; the product
    ``siblings × engine workers`` is capped at the host's CPU count so a
    campaign of multiprocess runs cannot oversubscribe the machine.
    ``None`` asks for the default: four workers, within that budget.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    siblings = max(1, int(sibling_processes))
    budget = max(1, cpus // siblings)
    if requested is None:
        return min(4, budget)
    return max(1, min(int(requested), budget))
