"""Adapter presenting an :class:`Engine` as the runner's force field.

With an engine attached, the decomposed per-PE pass *is* the physics: the
integrator's force evaluation calls :meth:`EngineForceField.compute`, which
runs one engine force pass over the current cell-owner map and finishes with
the same attraction/finite-check epilogue as :class:`repro.md.forces.ForceField`.
The per-PE wall-clock times of the pass are kept on :attr:`last_pass` so the
runner's ``"measured"`` timing mode reuses them instead of running a second
pass.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..core.ddm import DecomposedForceResult
from ..md.forces import ForceResult, apply_attraction, check_finite_forces
from ..md.neighbors import NeighborStats, VerletList
from ..md.system import ParticleSystem
from .base import Engine


class EngineForceField:
    """Force field whose evaluations are executed by an engine.

    Parameters
    ----------
    engine:
        A bound :class:`Engine` (the runner binds it before constructing
        this adapter).
    owner_map:
        Zero-argument callable returning the current ``(n_cells,)``
        cell-owner array — a live view of the runner's assignment, so DLB
        migrations are visible to the next force pass.
    attraction, attractors:
        Same meaning as on :class:`repro.md.forces.ForceField`.
    """

    #: Backend label (parallels ``ForceField.backend``).
    backend = "engine"

    def __init__(
        self,
        engine: Engine,
        owner_map: Callable[[], np.ndarray],
        attraction: float = 0.0,
        attractors: np.ndarray | None = None,
    ) -> None:
        self.engine = engine
        self.potential = engine.context.potential if engine.context else None
        self._owner_map = owner_map
        self.attraction = float(attraction)
        self.attractors = attractors
        #: Pair-search instrumentation, as reported by the engine's passes:
        #: list builds / reuses and candidates of the units' cached lists;
        #: ``accepted`` counts per-PE pair evaluations (a pair split between
        #: two owners is evaluated by both).
        self.stats = NeighborStats()
        #: The most recent engine pass (per-PE seconds feed "measured" mode).
        self.last_pass: DecomposedForceResult | None = None
        # The engine step counter orders router traffic; checkpointed so a
        # resumed run's message streams continue with the same step ids.
        self._step = 0

    @property
    def verlet_list(self) -> VerletList | None:
        """``None``: the cached lists live in the engine's execution units."""
        return None

    def invalidate_cache(self) -> None:
        """Nothing to drop on the driver; the units' lists never shape a result."""

    def compute(self, system: ParticleSystem) -> ForceResult:
        """Evaluate forces via the engine, writing ``system.forces`` too."""
        result = self.engine.force_pass(
            system.positions, self._owner_map(), self._step
        )
        self._step += 1
        self.last_pass = result
        n_pairs = int(result.per_pe_pairs.sum())
        if result.list_rebuilt:
            self.stats.record_build(result.n_candidates)
        else:
            self.stats.record_reuse()
        self.stats.record_evaluation(result.n_candidates, n_pairs)
        forces = result.forces
        potential_energy = result.potential_energy
        if self.attraction > 0.0:
            forces, extra = apply_attraction(
                system.positions, forces, system.box_length,
                self.attraction, self.attractors,
            )
            potential_energy += extra
        check_finite_forces(forces)
        system.forces[...] = forces
        return ForceResult(forces, potential_energy, result.virial, n_pairs)

    # -- checkpointing -------------------------------------------------------

    def cache_state(self) -> dict:
        """Snapshot of the counters and the engine step cursor."""
        return {
            "stats": self.stats.state_dict(),
            "verlet": None,
            "engine_step": self._step,
        }

    def restore_cache_state(self, state: dict, box_length: float) -> None:
        """Restore a snapshot taken by :meth:`cache_state`.

        Also accepts a classic :class:`~repro.md.forces.ForceField` snapshot
        (no ``engine_step`` key): a checkpoint written without an engine can
        resume under one, because the units' lists are rebuilt on the first
        pass and their age never perturbs the trajectory.
        """
        self.stats.load_state_dict(state["stats"])
        self._step = int(state.get("engine_step", 0))
