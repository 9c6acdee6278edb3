"""Figure 9: the trajectory of a run through (n, C0/C) space.

A concentrating run starts near the origin (no empty cells, no excess
concentration in any maximum domain) and climbs as cells empty out; the
experimental boundary point sits where the force-time spread starts rising.
The run is one boundary repetition (:func:`~.fig10.run_boundary_repetition`),
so its boundary point is the one a ``fig9-quick`` campaign stores.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..theory.boundary import BoundaryPoint
from ..theory.trajectory import Trajectory
from .common import ExperimentGeometry, geometry_for
from .fig10 import run_boundary_repetition


@dataclass(frozen=True)
class Fig9Result:
    """One trajectory plus (when detected) its boundary point."""

    geometry: ExperimentGeometry
    trajectory: Trajectory
    boundary: BoundaryPoint | None


def run_fig9(
    m: int = 3,
    n_pes: int = 9,
    density: float = 0.256,
    n_steps: int = 150,
    seed: int = 1,
    rounds_per_config: int | None = None,
) -> Fig9Result:
    """Drive one concentration sweep and record its (n, C0/C) trajectory.

    ``seed`` is the schedule seed and ``rounds_per_config`` None is
    ``auto_rounds``, as in a boundary ``RunSpec`` of the same fields.
    """
    result, boundary = run_boundary_repetition(
        m, n_pes, density, schedule_seed=seed, n_steps=n_steps,
        rounds_per_config=rounds_per_config,
    )
    return Fig9Result(
        geometry=geometry_for(m, n_pes, density),
        trajectory=result.trajectory,
        boundary=boundary,
    )
