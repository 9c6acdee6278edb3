"""Adapter presenting an :class:`Engine` as the runner's force field.

With an engine attached, the integrator's force evaluation calls
:meth:`EngineForceField.compute`, which runs one engine force pass and
finishes with :class:`repro.md.forces.ForceField`'s attraction/finite-check
epilogue.
"""

from __future__ import annotations

import numpy as np

from ..md.forces import ForceField, ForceResult
from ..md.system import ParticleSystem
from .base import Engine


class EngineForceField(ForceField):
    """A :class:`ForceField` whose pair lists and force pass live in an engine.

    ``engine`` must be bound (the runner binds it before constructing this
    adapter). ``stats`` reports the engine's passes: list builds / reuses
    and candidates of the units' cached lists, and accepted pairs.
    """

    def __init__(
        self,
        engine: Engine,
        attraction: float = 0.0,
        attractors: np.ndarray | None = None,
    ) -> None:
        context = engine.context
        super().__init__(context.potential, attraction, attractors, skin=context.skin)
        self.engine = engine

    # Its own method, not ForceField's: ledger/trace.py wraps both classes'
    # ``compute`` as ``md.force``, and an inherited one would be wrapped twice.
    def compute(self, system: ParticleSystem) -> ForceResult:
        """Evaluate forces via the engine, writing ``system.forces`` too."""
        done = self.engine.force_pass(system.positions)
        if done.list_rebuilt:
            self.stats.record_build(done.n_candidates)
        else:
            self.stats.record_reuse()
        self.stats.record_evaluation(done.n_candidates, done.force.n_pairs)
        return self._finish(system, done.force)

    def restore_cache_state(self, state: dict, box_length: float) -> None:
        """Restore the counters; the units' lists rebuild on their first pass."""
        self.stats.load_state_dict(state["stats"])
