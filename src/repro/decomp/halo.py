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


def importer_words(cell_owner: np.ndarray, cell_list: CellList, n_pes: int) -> np.ndarray:
    """``(C, ceil(P/64))`` ``uint64`` bit sets of the PEs importing each cell:
    the box OR of one owner bit per cell, minus the owner. A shift by 64 or
    more (a negative one wraps) is 0 in NumPy: it clears the other words."""
    shifts = (cell_owner[:, None] - np.arange(0, n_pes, 64)).astype(np.uint64)
    own = np.left_shift(np.uint64(1), shifts).reshape((cell_list.cells_per_side,) * 3 + (-1,))
    return (cell_list.box_reduce(own, np.bitwise_or) ^ own).reshape(cell_list.n_cells, -1)


def unpack_words(words: np.ndarray, n_pes: int) -> np.ndarray:
    """``(K, n_words)`` ``uint64`` bit sets as a ``(K, n_pes)`` 0/1 matrix."""
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :n_pes]


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

    One code path for any ``P`` over :func:`importer_words`. Flat neighbours
    touch (periodically), so a run of equal words has one owner; runs are
    grouped by word with one sort, so ghost cells and particles are integer
    sums per distinct word and only those words are unpacked. Contact is
    symmetric (``q`` imports from ``p`` exactly when ``p`` imports from
    ``q``): ``messages[q]`` is the popcount of the OR of its cells' words.
    """
    n_cells = cell_list.n_cells
    if cell_owner.shape != (n_cells,):
        raise DecompositionError(f"owner map shape {cell_owner.shape} != ({n_cells},)")
    if counts_flat.shape != (n_cells,):
        raise DecompositionError(f"counts shape {counts_flat.shape} != ({n_cells},)")
    importers = importer_words(cell_owner, cell_list, n_pes)
    differs = (importers[1:] != importers[:-1]).any(axis=1)
    bounds = np.flatnonzero(np.concatenate(([True], differs, [True])))
    starts = bounds[:-1]
    words = importers.take(starts, axis=0)
    reached = np.zeros((n_pes, words.shape[1]), dtype=np.uint64)
    np.bitwise_or.at(reached, cell_owner[starts], words)
    order = np.lexsort(words.T)
    words = words.take(order, axis=0)
    groups = np.flatnonzero(np.concatenate(([True], (words[1:] != words[:-1]).any(axis=1))))
    # (cells, particles) per run, then per distinct word.
    totals = np.array((np.diff(bounds), np.add.reduceat(counts_flat, starts)), np.int64)
    totals = np.add.reduceat(totals.take(order, axis=1), groups, axis=1)
    ghost_cells, ghost_particles = totals @ unpack_words(words.take(groups, axis=0), n_pes)
    messages = unpack_words(reached, n_pes).sum(axis=1, dtype=np.int64)
    return HaloExchange(ghost_cells, ghost_particles, messages)


def halo_summary(halo: HaloExchange) -> dict[str, float]:
    """Aggregate statistics of a halo profile (for reports and tests)."""
    return {
        "max_ghost_cells": float(halo.ghost_cells.max(initial=0)),
        "mean_ghost_cells": float(halo.ghost_cells.mean()) if len(halo.ghost_cells) else 0.0,
        "max_ghost_particles": float(halo.ghost_particles.max(initial=0)),
        "max_messages": float(halo.messages.max(initial=0)),
    }
