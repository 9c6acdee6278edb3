"""Initial cell-to-PE partition of the square-pillar shape (Figure 2)."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DecompositionError


def pillar_partition(cells_per_side: int, n_pes: int) -> np.ndarray:
    """Square-pillar decomposition: returns the *column* owner map ``(nc^2,)``.

    PE(i, j) (flat ``i * sqrt(P) + j``) owns the ``m x m`` block of columns
    with ``cx in [i*m, (i+1)*m)``, ``cy in [j*m, (j+1)*m)`` where
    ``m = nc / sqrt(P)`` (Figure 7).
    """
    side = math.isqrt(n_pes)
    if side * side != n_pes:
        raise DecompositionError(f"pillar partition needs square n_pes, got {n_pes}")
    if cells_per_side % side != 0:
        raise DecompositionError(
            f"pillar partition needs sqrt(P) | nc, got sqrt({n_pes})={side}, nc={cells_per_side}"
        )
    m = cells_per_side // side
    cols = np.arange(cells_per_side**2)
    cx, cy = cols // cells_per_side, cols % cells_per_side
    return ((cx // m) * side + (cy // m)).astype(np.int64)


def expand_columns_to_cells(column_owner: np.ndarray, cells_per_side: int) -> np.ndarray:
    """Expand a ``(nc^2,)`` column owner map to the flat ``(nc^3,)`` cell map."""
    if column_owner.shape != (cells_per_side**2,):
        raise DecompositionError(
            f"column owner shape {column_owner.shape} != ({cells_per_side ** 2},)"
        )
    return np.repeat(column_owner, cells_per_side)
