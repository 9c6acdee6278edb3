"""Domain shapes and their communication footprints (Figure 2).

The paper (and its reference [8]) compares plane, square-pillar and cube
domains by interprocessor communication overhead, concluding the square
pillar is best for mid-size simulations on mid-size machines. This module
quantifies that comparison: ghost-cell volume and neighbour count per PE for
each shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DecompositionConfig
from ..errors import ConfigurationError


@dataclass(frozen=True)
class DomainShapeInfo:
    """Communication profile of one domain shape.

    Attributes
    ----------
    shape:
        ``"plane"``, ``"pillar"`` or ``"cube"``.
    cells_per_domain:
        Cells owned by each PE.
    ghost_cells:
        Cells imported from neighbours each step (halo of thickness 1).
    n_neighbors:
        Distinct PEs each PE must exchange with (2 / 8 / 26).
    """

    shape: str
    cells_per_domain: int
    ghost_cells: int
    n_neighbors: int


def domain_shape_info(shape: str, cells_per_side: int, n_pes: int) -> DomainShapeInfo:
    """Communication profile for ``shape`` at the given problem size.

    Raises :class:`ConfigurationError` when ``n_pes`` does not tile the grid
    for the requested shape.
    """
    nc = cells_per_side
    if shape == "plane":
        if nc % n_pes != 0:
            raise ConfigurationError(f"plane needs P | nc, got {n_pes}, {nc}")
        thickness = nc // n_pes
        # Two ghost faces of nc x nc cells (or one if the slab wraps onto itself).
        ghost = 2 * nc * nc if n_pes > 1 else 0
        return DomainShapeInfo("plane", thickness * nc * nc, ghost, min(2, n_pes - 1) if n_pes > 1 else 0)
    if shape == "pillar":
        geometry = DecompositionConfig(nc, n_pes)
        side, m = geometry.pe_side, geometry.pillar_m
        ghost = ((m + 2) ** 2 - m * m) * nc if side > 1 else 0
        return DomainShapeInfo("pillar", m * m * nc, ghost, 8 if side > 2 else (3 if side == 2 else 0))
    if shape == "cube":
        side = round(n_pes ** (1.0 / 3.0))
        if side**3 != n_pes or nc % side != 0:
            raise ConfigurationError(f"cube needs cubic P with cbrt(P) | nc, got {n_pes}, {nc}")
        m = nc // side
        ghost = (m + 2) ** 3 - m**3 if side > 1 else 0
        return DomainShapeInfo("cube", m**3, ghost, 26 if side > 2 else (7 if side == 2 else 0))
    raise ConfigurationError(f"unknown shape {shape!r}")


def domain_comm_volume(shape: str, cells_per_side: int, n_pes: int) -> int:
    """Ghost cells imported per PE per step for ``shape`` (lower is better)."""
    return domain_shape_info(shape, cells_per_side, n_pes).ghost_cells


def best_shape(cells_per_side: int, n_pes: int) -> str:
    """The feasible shape with the smallest ghost volume at this size.

    Reproduces the design argument of Section 2.2: square pillars win for
    mid-size problems on mid-size machines; cubes take over when the machine
    is large relative to the grid.
    """
    candidates: list[tuple[int, str]] = []
    for shape in ("plane", "pillar", "cube"):
        try:
            candidates.append((domain_comm_volume(shape, cells_per_side, n_pes), shape))
        except ConfigurationError:
            continue
    if not candidates:
        raise ConfigurationError(
            f"no domain shape tiles nc={cells_per_side} across P={n_pes}"
        )
    return min(candidates)[1]
