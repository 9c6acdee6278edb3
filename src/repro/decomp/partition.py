"""Initial cell-to-PE partition of the square-pillar shape (Figure 2)."""

from __future__ import annotations

import functools

import numpy as np

from ..config import DecompositionConfig
from ..errors import DecompositionError


@functools.cache
def pillar_partition(cells_per_side: int, n_pes: int) -> np.ndarray:
    """Square-pillar decomposition: returns the *column* owner map ``(nc^2,)``.

    PE(i, j) (flat ``i * sqrt(P) + j``) owns the ``m x m`` block of columns
    with ``cx in [i*m, (i+1)*m)``, ``cy in [j*m, (j+1)*m)`` where
    ``m = nc / sqrt(P)`` (Figure 7). Raises :class:`DecompositionError`
    for a grid and PE count :class:`DecompositionConfig` refuses. Every run's
    :class:`~repro.decomp.assignment.CellAssignment` asks for it, so the map
    is built once per ``(nc, P)`` and is read-only.
    """
    geometry = DecompositionConfig(int(cells_per_side), int(n_pes))
    side, m = geometry.pe_side, geometry.pillar_m
    cols = np.arange(cells_per_side**2)
    cx, cy = cols // cells_per_side, cols % cells_per_side
    owner = ((cx // m) * side + (cy // m)).astype(np.int64)
    owner.setflags(write=False)
    return owner


def expand_columns_to_cells(column_owner: np.ndarray, cells_per_side: int) -> np.ndarray:
    """Expand a ``(nc^2,)`` column owner map to the flat ``(nc^3,)`` cell map."""
    if column_owner.shape != (cells_per_side**2,):
        raise DecompositionError(
            f"column owner shape {column_owner.shape} != ({cells_per_side ** 2},)"
        )
    return np.repeat(column_owner, cells_per_side)
