"""Shared geometry and configuration helpers for the experiment drivers.

The paper's evaluation varies the pillar cross-section ``m`` and the PE count
``P`` while keeping the *cell size* pinned to "r_c or a little larger"
(Section 3.2). :func:`geometry_for` reproduces that coupling: given ``(m, P,
density)`` it derives the grid ``nc = m sqrt(P)``, the box ``L = nc * cell``
and the particle count ``N = density * L^3``, so different ``m`` values are
compared at identical cell size and gas statistics, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import (
    DecompositionConfig,
    MachineConfig,
    MDConfig,
    SimulationConfig,
    pe_side_for,
)
from ..errors import ConfigurationError
from ..units import PAPER_CUTOFF, PAPER_RHO

#: Cell edge used across experiments: "a little larger" than the cut-off,
#: matching the paper's N=8000 / C=1728 run (31.50 / 12 = 2.62).
EXPERIMENT_CELL_SIZE = 1.05 * PAPER_CUTOFF


@dataclass(frozen=True)
class ExperimentGeometry:
    """Derived problem geometry for one (m, P, density) experiment point."""

    m: int
    n_pes: int
    density: float
    cells_per_side: int
    box_length: float
    n_particles: int


def geometry_for(m: int, n_pes: int, density: float = PAPER_RHO) -> ExperimentGeometry:
    """Problem geometry for a pillar cross-section ``m`` on ``P`` PEs."""
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    cells_per_side = m * pe_side_for(n_pes)
    box_length = cells_per_side * EXPERIMENT_CELL_SIZE
    n_particles = int(round(density * box_length**3))
    return ExperimentGeometry(
        m=m,
        n_pes=n_pes,
        density=density,
        cells_per_side=cells_per_side,
        box_length=box_length,
        n_particles=n_particles,
    )


def simulation_config_for(
    geometry: ExperimentGeometry,
    dlb_enabled: bool = True,
    machine: MachineConfig | None = None,
    attraction: float = 0.0,
) -> SimulationConfig:
    """Materialise a geometry as a full simulation config.

    ``dlb_enabled`` is read by nothing (plain DDM is ``balancer="none"``):
    ``ledger/workloads.py`` passes ``True``, ``False`` raises. It goes with
    Ledger v2, like ``RunConfig.force_backend``.
    """
    if not dlb_enabled:
        raise ConfigurationError("dlb_enabled=False is gone: use balancer='none'")
    return SimulationConfig(
        md=MDConfig(
            n_particles=geometry.n_particles,
            density=geometry.density,
            attraction=attraction,
        ),
        decomposition=DecompositionConfig(
            cells_per_side=geometry.cells_per_side,
            n_pes=geometry.n_pes,
        ),
        machine=machine if machine is not None else MachineConfig(),
    )


def droplets_for(geometry: ExperimentGeometry, cells_per_droplet: float = 8.0) -> int:
    """Initial nucleation-site count: one droplet per ~8 cells.

    Scaling with the cell count (not the PE count) keeps the early sweep
    statistically balanced across domains for every problem size, as real
    homogeneous nucleation is.
    """
    n_cells = geometry.cells_per_side**3
    return max(12, int(round(n_cells / cells_per_droplet)))
