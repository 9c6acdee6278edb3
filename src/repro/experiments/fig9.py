"""Figure 9: the trajectory of a run through (n, C0/C) space.

A concentrating run starts near the origin (no empty cells, no excess
concentration in any maximum domain) and climbs as cells empty out; the
experimental boundary point sits where the force-time spread starts rising.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.runner import DrivenLoadRunner
from ..errors import AnalysisError
from ..theory.boundary import BoundaryPoint, boundary_point
from ..theory.trajectory import Trajectory
from ..workloads.concentration import ConcentrationSchedule
from .common import ExperimentGeometry, droplets_for, geometry_for, simulation_config_for


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
    rounds_per_config: int = 3,
) -> Fig9Result:
    """Drive one concentration sweep and record its (n, C0/C) trajectory."""
    geometry = geometry_for(m, n_pes, density)
    config = simulation_config_for(geometry)
    schedule = ConcentrationSchedule(
        n_particles=geometry.n_particles,
        box_length=geometry.box_length,
        n_steps=n_steps,
        n_droplets=droplets_for(geometry),
        seed=seed,
    )
    # The trajectory/boundary analysis is defined on the paper's balancer:
    # the C' limit being probed is the permanent-cell protocol's.
    result = DrivenLoadRunner(
        config, rounds_per_config=rounds_per_config, balancer="permanent"
    ).run(schedule)
    trajectory = result.trajectory
    try:
        boundary = boundary_point(result.spread, trajectory, steps=result.steps)
    except AnalysisError:
        boundary = None
    return Fig9Result(geometry=geometry, trajectory=trajectory, boundary=boundary)
