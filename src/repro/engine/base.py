"""Execution-engine protocol: how a run's per-PE work actually executes.

An :class:`Engine` executes the decomposed per-PE force pass for all P
virtual PEs and folds the slices into one
:class:`~repro.core.ddm.DecomposedForceResult`. Each execution unit (the
sequential engine, each multiprocess worker) is a :class:`SliceCutter`: it
keeps one cached canonical neighbour list and cuts its PEs' slices out of it
with :func:`repro.core.ddm.pe_force_slice`. The fold is identical across
backends — scalars are routed through a
:class:`~repro.engine.router.DeterministicRouter` and reduced in delivery
order — so every backend produces bit-identical forces/energies and thus a
bit-identical run digest. Backends differ only in *where* the slices are
computed: the sequential engine loops PEs in rank order in-process; the
multiprocess engine shards PEs across worker processes over shared memory.
"""

from __future__ import annotations

import abc
import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.ddm import DecomposedForceResult, PEForceSlice, pair_table, pe_force_slice
from ..errors import ConfigurationError, EngineError
from ..md.celllist import CellList
from ..md.neighbors import VerletList
from ..md.potential import LennardJones
from .router import DeterministicRouter

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..obs import Observability

#: Engine names accepted by :func:`create_engine` and the CLI ``--engine``.
ENGINE_NAMES = ("sequential", "multiprocess")

#: Router tag under which per-PE force-pass scalars travel.
FORCE_RESULT_TAG = "force-result"

#: Router tag under which engine lifecycle notices travel. They are posted
#: and drained at lifecycle points only (bind/close), when no force-pass
#: traffic is pending, so :meth:`Engine._fold` never sees them.
LIFECYCLE_TAG = "engine-lifecycle"


@dataclass(frozen=True)
class EngineContext:
    """The picklable workload description an engine is bound to.

    Everything a worker process needs to rebuild the pair-search structures:
    no live objects, only plain values, so the context crosses a ``spawn``
    boundary unchanged. ``skin`` and ``neighbor_max_reuse`` are the run's
    :class:`~repro.config.RunConfig` fields; they set each unit's
    list-rebuild schedule, never the result.
    """

    n_particles: int
    n_pes: int
    box_length: float
    cells_per_side: int
    potential: LennardJones
    skin: float = 0.4
    neighbor_max_reuse: int = 20

    def __post_init__(self) -> None:
        if self.n_particles <= 0:
            raise ConfigurationError(
                f"n_particles must be positive, got {self.n_particles}"
            )
        if self.n_pes <= 0:
            raise ConfigurationError(f"n_pes must be positive, got {self.n_pes}")
        if self.skin <= 0 or self.neighbor_max_reuse < 0:
            raise ConfigurationError(
                "engine context needs skin > 0 and neighbor_max_reuse >= 0, got "
                f"{self.skin} / {self.neighbor_max_reuse}"
            )


class SliceCutter:
    """What one execution unit keeps between passes, and its per-pass work.

    One :class:`~repro.md.neighbors.VerletList` (canonical order, ``r_c +
    skin``) per unit, rebuilt from the shared positions alone -- so every
    unit of a run rebuilds on the same passes -- and filtered once per pass
    into the :class:`~repro.core.ddm.PairTable` all of the unit's PE slices
    are cut from. A fresh unit (e.g. after a resume) just builds on its
    first pass; the slices do not depend on when the list was built.
    """

    def __init__(self, context: EngineContext) -> None:
        self.context = context
        self.cell_list = CellList(context.box_length, context.cells_per_side)
        self.verlet = VerletList(
            context.box_length, context.potential.cutoff, context.skin,
            max_reuse=context.neighbor_max_reuse,
        )

    def cut(
        self, positions: np.ndarray, cell_owner: np.ndarray, pe_ids: Iterable[int]
    ) -> tuple[list[PEForceSlice], tuple[bool, int]]:
        """Slices of ``pe_ids`` plus ``(list rebuilt?, candidates)`` of the pass."""
        context = self.context
        builds = self.verlet.stats.rebuilds
        candidates = self.verlet.candidates(positions)
        table = pair_table(
            positions, self.cell_list, cell_owner, context.potential.cutoff, candidates
        )
        pieces = [
            pe_force_slice(pe, positions, context.box_length, table, context.potential)
            for pe in pe_ids
        ]
        return pieces, (self.verlet.stats.rebuilds > builds, len(candidates))


class Engine(abc.ABC):
    """Pluggable executor of the decomposed per-PE force pass.

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
        self.router = DeterministicRouter()
        self._context: EngineContext | None = None
        self._closed = False
        self._observability: "Observability | None" = None
        #: Last folded simulation step (stamps the ``engine.stop`` events).
        self._last_step = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def context(self) -> EngineContext | None:
        """The bound workload, or ``None`` before :meth:`bind`."""
        return self._context

    @property
    def workers(self) -> int:
        """Worker processes backing this engine (1 for in-process backends)."""
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
        self._emit_lifecycle(0, "engine.start", self._lifecycle_entries())

    def attach_observability(self, observability: "Observability | None") -> None:
        """Give the engine a sink for metrics/profiler output (nullable).

        Attach *before* :meth:`bind` so the bind-time ``engine.start``
        lifecycle events reach the flight recorder.
        """
        self._observability = observability

    def close(self) -> None:
        """Release backend resources; further passes raise ``EngineError``."""
        if not self._closed:
            entries = self._lifecycle_entries() if self._context is not None else []
            self._closed = True
            self._shutdown()
            self._emit_lifecycle(self._last_step, "engine.stop", entries)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- backend hooks -----------------------------------------------------

    def _start(self) -> None:
        """Backend hook: allocate resources for the bound context."""

    def _shutdown(self) -> None:
        """Backend hook: release resources (must be safe to call once)."""

    def _lifecycle_entries(self) -> list[tuple[int, dict]]:
        """``(src, fields)`` rows describing this engine's execution units.

        One row per unit of execution (the multiprocess backend overrides
        this with one row per worker, carrying its PE shard).
        """
        return [(0, {"engine": self.name})]

    def _emit_lifecycle(
        self, step: int, kind: str, entries: list[tuple[int, dict]]
    ) -> None:
        """Record lifecycle notices through the router into the host channel.

        Entries are posted under :data:`LIFECYCLE_TAG` and the router is
        drained immediately, so the recorded order is the router's canonical
        ``(step, tag, src)`` sort — independent of worker completion order.
        Must only be called at lifecycle points, when no force-pass traffic
        is pending (``_fold`` would otherwise reject the foreign tag).
        """
        obs = self._observability
        events = obs.events if obs is not None else None
        if events is None or not events.enabled or not entries:
            return
        for src, fields in entries:
            self.router.post(step, LIFECYCLE_TAG, src, 0, fields)
        for message in self.router.drain():
            events.emit_host(message.step, kind, src=message.src, **message.payload)

    @abc.abstractmethod
    def force_pass(
        self, positions: np.ndarray, cell_owner: np.ndarray, step: int
    ) -> DecomposedForceResult:
        """Execute one decomposed force pass over all PEs.

        ``positions`` is the ``(N, 3)`` current configuration, ``cell_owner``
        the ``(n_cells,)`` owner map of the *current* assignment (it changes
        under DLB), ``step`` the simulation step (orders router traffic).
        """

    # -- shared machinery --------------------------------------------------

    def _require_context(self) -> EngineContext:
        if self._closed:
            raise EngineError(f"engine {self.name!r} is closed")
        if self._context is None:
            raise EngineError(f"engine {self.name!r} used before bind()")
        return self._context

    def _fold(
        self, forces: np.ndarray, step: int, list_info: tuple[bool, int]
    ) -> DecomposedForceResult:
        """Reduce routed per-PE scalars into one result, in delivery order.

        Every backend posts one ``(energy, virial, seconds, n_pairs)`` tuple
        per PE under :data:`FORCE_RESULT_TAG`; the router delivers them
        sorted by ``(step, tag, src, ...)`` = PE rank order, so the energy
        and virial sums accumulate in exactly the order the sequential
        reference uses — bit-identical regardless of completion order.
        ``list_info`` is one unit's ``(list rebuilt?, candidates)``; all
        units of a pass agree on it.
        """
        context = self._require_context()
        n_pes = context.n_pes
        per_pe_seconds = np.zeros(n_pes, dtype=np.float64)
        per_pe_pairs = np.zeros(n_pes, dtype=np.int64)
        energy = 0.0
        virial = 0.0
        delivered = 0
        for message in self.router.drain():
            if message.tag != FORCE_RESULT_TAG or message.step != step:
                raise EngineError(
                    f"unexpected routed message {message.tag!r} at step "
                    f"{message.step} (folding step {step})"
                )
            pe_energy, pe_virial, pe_seconds, pe_pairs = message.payload
            energy += pe_energy
            virial += pe_virial
            per_pe_seconds[message.src] = pe_seconds
            per_pe_pairs[message.src] = pe_pairs
            delivered += 1
        if delivered != n_pes:
            raise EngineError(
                f"force pass folded {delivered} PE results, expected {n_pes}"
            )
        self._last_step = step
        return DecomposedForceResult(
            forces=forces,
            potential_energy=energy,
            per_pe_seconds=per_pe_seconds,
            per_pe_pairs=per_pe_pairs,
            virial=virial,
            n_candidates=list_info[1],
            list_rebuilt=list_info[0],
        )


def create_engine(
    engine: "str | Engine | None",
    workers: int | None = None,
) -> "Engine | None":
    """Resolve an engine request to an instance.

    Accepts a backend name (``workers`` sizes the multiprocess backend;
    ``None`` picks ``min(4, os.cpu_count())``), an already-constructed
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
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    siblings = max(1, int(sibling_processes))
    budget = max(1, cpus // siblings)
    if requested is None:
        return min(4, budget)
    return max(1, min(int(requested), budget))
