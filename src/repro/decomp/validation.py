"""Structural validation: the 8-neighbour property.

DLB must never let a PE's domain touch the domain of a PE that is not one of
its 8 torus neighbours (Section 2.3) -- an irregular communication pattern
would destroy the predictable halo exchange. These checks are the executable
form of that invariant, on the full 3-D cell owner map (26-adjacency).
"""

from __future__ import annotations

import numpy as np

from ..errors import DecompositionError
from ..md.celllist import CellList
from ..parallel.topology import Torus2D
from .assignment import CellAssignment
from .halo import importer_words, unpack_words


def contact_pairs(cell_owner: np.ndarray, cells_per_side: int) -> set[tuple[int, int]]:
    """Unordered pairs of distinct PEs whose domains touch (26-adjacency):
    each cell's owner with every PE in its :func:`~.halo.importer_words`."""
    expected = cells_per_side**3
    if cell_owner.shape != (expected,):
        raise DecompositionError(f"cell owner shape {cell_owner.shape} != ({expected},)")
    n_pes = int(cell_owner.max()) + 1
    words = importer_words(cell_owner, CellList(float(cells_per_side), cells_per_side), n_pes)
    cell, importer = np.nonzero(unpack_words(words, n_pes))
    owner = cell_owner[cell]
    return set(zip(np.minimum(owner, importer).tolist(), np.maximum(owner, importer).tolist()))


def torus_neighbors(pe: int, pe_side: int) -> set[int]:
    """The 8 torus neighbours of a PE on a ``pe_side x pe_side`` torus."""
    return set(Torus2D(pe_side).neighbors(pe))


def check_eight_neighbor_property(assignment: CellAssignment) -> None:
    """Raise :class:`DecompositionError` if any domains touch beyond 8 neighbours."""
    pairs = contact_pairs(assignment.holder, assignment.cells_per_side)
    topology = Torus2D(assignment.pe_side)
    for a, b in pairs:
        if b not in topology.neighbors(a):
            raise DecompositionError(
                f"domains of PEs {a} and {b} touch but are not torus neighbours"
            )
