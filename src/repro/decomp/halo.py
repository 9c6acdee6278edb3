"""Ghost-cell (halo) exchange accounting.

Each PE needs the particles of every cell adjacent to its domain but owned by
another PE. This module derives, from a flat cell-owner map and per-cell
particle counts, how many ghost cells / particles / neighbour messages each
PE's halo exchange involves -- the inputs of the communication cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DecompositionError
from ..md.celllist import CellList


@dataclass(frozen=True)
class HaloExchange:
    """Per-PE halo profile for one configuration.

    Attributes
    ----------
    ghost_cells:
        ``(P,)`` distinct cells each PE imports.
    ghost_particles:
        ``(P,)`` particles contained in those cells.
    messages:
        ``(P,)`` distinct neighbour PEs each PE receives from.
    """

    ghost_cells: np.ndarray
    ghost_particles: np.ndarray
    messages: np.ndarray


def compute_halo(
    cell_owner: np.ndarray,
    cell_list: CellList,
    counts_flat: np.ndarray,
    n_pes: int,
) -> HaloExchange:
    """Halo profile of an owner map.

    ``cell_owner`` is the flat ``(C,)`` map, ``counts_flat`` the flat per-cell
    particle counts. A ghost cell adjacent through several stencil offsets is
    imported once (real implementations deduplicate the ghost region).

    The 26-neighbour reach of a PE is the dilation of its cells by a periodic
    3x3x3 box, which factors into one ``m | roll(m, +1) | roll(m, -1)`` pass
    per axis over a one-hot ownership mask; cells reached but not owned are
    the ghost set, already deduplicated. The mask is laid out ``(C, P)`` so
    that every roll moves whole ``P``-byte rows; it is ``P * C`` bytes
    (210 KB at 36 PEs x 18^3 cells) and is rebuilt on every call -- nothing
    is kept between calls.
    """
    n_cells = cell_list.n_cells
    if cell_owner.shape != (n_cells,):
        raise DecompositionError(f"owner map shape {cell_owner.shape} != ({n_cells},)")
    if counts_flat.shape != (n_cells,):
        raise DecompositionError(f"counts shape {counts_flat.shape} != ({n_cells},)")

    owned = np.zeros((n_cells, n_pes), dtype=bool)
    owned[np.arange(n_cells), cell_owner] = True
    reach = owned.reshape((cell_list.cells_per_side,) * 3 + (n_pes,))
    for axis in range(3):
        reach = reach | np.roll(reach, 1, axis) | np.roll(reach, -1, axis)
    # reach is a superset of owned, so xor is "reached and not owned".
    cell, importer = np.divmod(np.flatnonzero(reach.reshape(n_cells, n_pes) ^ owned), n_pes)

    ghost_cells = np.bincount(importer, minlength=n_pes)
    ghost_particles = np.bincount(
        importer, weights=counts_flat[cell], minlength=n_pes
    ).astype(np.int64)
    # Message count: distinct (importer, source PE) pairs.
    senders = np.zeros((n_pes, n_pes), dtype=bool)
    senders[importer, cell_owner[cell]] = True
    return HaloExchange(ghost_cells, ghost_particles, senders.sum(axis=1))


def halo_summary(halo: HaloExchange) -> dict[str, float]:
    """Aggregate statistics of a halo profile (for reports and tests)."""
    return {
        "max_ghost_cells": float(halo.ghost_cells.max(initial=0)),
        "mean_ghost_cells": float(halo.ghost_cells.mean()) if len(halo.ghost_cells) else 0.0,
        "max_ghost_particles": float(halo.ghost_particles.max(initial=0)),
        "max_messages": float(halo.messages.max(initial=0)),
    }
