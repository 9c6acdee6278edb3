"""The paper's physical conditions (Section 3.2).

Reduced temperature 0.722 (below Argon's boiling point), reduced density
0.256: a supercooled gas whose particles keep concentrating over the run --
the load-imbalance driver of every experiment. Velocities are rescaled every
50 steps; the cut-off is 2.5; the boundary is periodic.
"""

from __future__ import annotations

import math

from ..config import DecompositionConfig, MachineConfig, MDConfig, SimulationConfig
from ..errors import ConfigurationError
from ..units import PAPER_RHO


def supercooled_config(
    n_particles: int,
    density: float = PAPER_RHO,
    attraction: float = 0.0,
    n_attractors: int = 1,
) -> MDConfig:
    """MD configuration under the paper's supercooled-gas conditions (the
    :class:`MDConfig` defaults)."""
    return MDConfig(
        n_particles=n_particles,
        density=density,
        attraction=attraction,
        n_attractors=n_attractors,
    )


def cells_for(md: MDConfig) -> int:
    """Largest cell grid whose cells still cover the cut-off: ``floor(L/r_c)``.

    This is the paper's choice: "the size of the cells is equal to r_c, or a
    little larger than r_c".
    """
    return int(md.box_length // md.cutoff)


def supercooled_simulation_config(
    n_particles: int,
    n_pes: int,
    density: float = PAPER_RHO,
    cells_per_side: int | None = None,
    machine: MachineConfig | None = None,
    attraction: float = 0.0,
    n_attractors: int = 1,
) -> SimulationConfig:
    """Full simulation config: supercooled gas + pillar decomposition.

    ``cells_per_side`` defaults to the largest grid compatible with the
    cut-off, rounded *down* to a multiple of ``sqrt(n_pes)`` so the pillar
    partition tiles evenly.
    """
    md = supercooled_config(n_particles, density, attraction, n_attractors)
    pe_side = math.isqrt(n_pes)
    if pe_side * pe_side != n_pes:
        raise ConfigurationError(f"n_pes must be a perfect square, got {n_pes}")
    if cells_per_side is None:
        cells_per_side = (cells_for(md) // pe_side) * pe_side
        if cells_per_side < pe_side:
            raise ConfigurationError(
                f"box of {md.box_length:.2f} cannot host a pillar grid for {n_pes} PEs "
                f"with cut-off {md.cutoff}"
            )
    return SimulationConfig(
        md=md,
        decomposition=DecompositionConfig(cells_per_side=cells_per_side, n_pes=n_pes),
        machine=machine if machine is not None else MachineConfig(),
    )
