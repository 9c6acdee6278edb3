"""Mutable cell-to-PE assignment for square-pillar decompositions.

Tracks, for every cell, its *home* PE (the initial square-pillar owner,
which never changes) and its *holder* (the PE currently computing it, which
DLB may change). The redistribution unit is a single cell (Section 2.3 sends
one cell ``C_send`` per step); the permanent wall, however, is defined per
*column*: every cell whose cross-section column lies on the wall row/column
of its domain (Figure 3) is permanent and pinned to its home. Because walls
span the full z extent, any lending of movable cells keeps the 8-neighbour
property.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DecompositionError, ProtocolError
from .grid import ColumnGrid
from .partition import expand_columns_to_cells, pillar_partition


def classify_permanent_columns(cells_per_side: int, n_pes: int) -> np.ndarray:
    """Boolean mask over *columns*: the permanent wall of each domain.

    Within each PE's ``m x m`` block (local coordinates ``u = cx mod m``,
    ``v = cy mod m``), the permanent columns are the wall row ``u = m-1`` and
    wall column ``v = m-1``: ``2m - 1`` columns, leaving ``(m-1)^2`` movable
    (Section 2.3: for m=2 a quarter of the domain is movable, for m=4 it is
    9/16). The wall sits on the high-coordinate edges because the protocol
    only lends cells toward lower-coordinate neighbours (Case 1).
    """
    side = math.isqrt(n_pes)
    if side * side != n_pes:
        raise DecompositionError(f"need square n_pes, got {n_pes}")
    if cells_per_side % side != 0:
        raise DecompositionError(f"need sqrt(P) | nc, got {side}, {cells_per_side}")
    m = cells_per_side // side
    cols = np.arange(cells_per_side**2)
    cx, cy = cols // cells_per_side, cols % cells_per_side
    u, v = cx % m, cy % m
    return (u == m - 1) | (v == m - 1)


class CellAssignment:
    """Who holds which cell, with DLB's structural invariants enforced.

    ``home`` and ``permanent`` never change, so everything that depends only
    on them is tabulated once here: each PE's home cells, its movable home
    cells (both ascending ids) and, per Case 1 offset, the order in which it
    lends those movable cells. The per-round queries read ``holder`` over
    one such block (``C / P`` cells), never over the whole map.
    """

    def __init__(self, cells_per_side: int, n_pes: int) -> None:
        self.grid = ColumnGrid(cells_per_side)
        self.cells_per_side = int(cells_per_side)
        self.n_cells = self.cells_per_side**3
        self.n_pes = int(n_pes)
        self.pe_side = math.isqrt(n_pes)
        if self.pe_side * self.pe_side != n_pes:
            raise DecompositionError(f"need square n_pes, got {n_pes}")
        self.m = cells_per_side // self.pe_side
        column_home = pillar_partition(cells_per_side, n_pes)
        self.home = expand_columns_to_cells(column_home, cells_per_side)
        self.holder = self.home.copy()
        column_permanent = classify_permanent_columns(cells_per_side, n_pes)
        self.permanent = np.repeat(column_permanent, cells_per_side)
        nc, m = self.cells_per_side, self.m
        self._home_cells = np.argsort(self.home, kind="stable").reshape(self.n_pes, -1)
        movable = self._home_cells[~self.permanent[self._home_cells]]
        self._home_movable = block = movable.reshape(self.n_pes, (m - 1) ** 2 * nc)
        column, z = np.divmod(block, nc)
        u, v = (column // nc) % m, (column % nc) % m
        self._lend_order = {}
        for di, dj in ((-1, -1), (-1, 0), (0, -1)):
            order = np.lexsort((block, z, u * (di < 0) + v * (dj < 0)))
            self._lend_order[di, dj] = np.take_along_axis(block, order, axis=1)

    # -- queries -----------------------------------------------------------

    def cells_of(self, pe: int) -> np.ndarray:
        """Cell ids currently held by ``pe``."""
        return np.flatnonzero(self.holder == pe)

    def cell_counts_per_pe(self) -> np.ndarray:
        """Number of cells each PE currently holds."""
        return np.bincount(self.holder, minlength=self.n_pes)

    def movable_at_home(self, pe: int) -> np.ndarray:
        """``pe``'s own movable cells that are currently at home."""
        block = self._home_movable[pe]
        return block[self.holder[block] == pe]

    def lendable(self, pe: int, offset: tuple[int, int]) -> np.ndarray:
        """:meth:`movable_at_home` in the order ``pe`` lends toward ``offset``.

        Cells closest to the receiving lower neighbour come first (lowest
        local ``u`` for offset (-1, 0), lowest ``v`` for (0, -1), lowest
        ``u + v`` for the corner); ties break on depth ``z``, then cell id.
        """
        block = self._lend_order[offset][pe]
        return block[self.holder[block] == pe]

    def borrowed_by(self, pe: int, lender: int) -> np.ndarray:
        """Cells with home ``lender`` currently held by ``pe`` (ascending)."""
        block = self._home_cells[lender]
        return block[self.holder[block] == pe]

    def cell_owner_map(self) -> np.ndarray:
        """The flat ``(nc^3,)`` holder map (alias for compatibility)."""
        return self.holder

    def column_of_cell(self, cell: int) -> int:
        """Cross-section column id of a flat cell id."""
        return cell // self.cells_per_side

    def cell_cross_section(self, cell: int) -> tuple[int, int, int]:
        """Cross-section coordinates and depth ``(cx, cy, z)`` of a cell."""
        nc = self.cells_per_side
        column, z = divmod(cell, nc)
        cx, cy = divmod(column, nc)
        return cx, cy, z

    def pe_coords(self, pe: int) -> tuple[int, int]:
        """Torus coordinates ``(i, j)`` of a flat PE id."""
        return pe // self.pe_side, pe % self.pe_side

    def pe_flat(self, i: int, j: int) -> int:
        """Flat PE id from torus coordinates (periodic)."""
        side = self.pe_side
        return (i % side) * side + (j % side)

    def lower_neighbors(self, pe: int) -> set[int]:
        """The three PEs a cell homed at ``pe`` may be lent to (Case 1)."""
        i, j = self.pe_coords(pe)
        return {
            self.pe_flat(i - 1, j - 1),
            self.pe_flat(i - 1, j),
            self.pe_flat(i, j - 1),
        }

    # -- mutations -----------------------------------------------------------

    def transfer(self, cell: int, to_pe: int) -> None:
        """Move ``cell`` to ``to_pe``, enforcing the DLB invariants.

        Raises :class:`ProtocolError` on moving a permanent cell, on a no-op
        transfer, or on placing a cell anywhere other than its home or one of
        the home's three lower (Case 1) neighbours.
        """
        if not 0 <= cell < self.n_cells:
            raise ProtocolError(f"cell {cell} out of range")
        if not 0 <= to_pe < self.n_pes:
            raise ProtocolError(f"PE {to_pe} out of range")
        if self.permanent[cell]:
            raise ProtocolError(f"cell {cell} is permanent and cannot move")
        if self.holder[cell] == to_pe:
            raise ProtocolError(f"cell {cell} already held by PE {to_pe}")
        home = int(self.home[cell])
        if to_pe != home and to_pe not in self.lower_neighbors(home):
            raise ProtocolError(
                f"cell {cell} (home PE {home}) may only be lent to the home's "
                f"lower neighbours {sorted(self.lower_neighbors(home))}, not PE {to_pe}"
            )
        self.holder[cell] = to_pe

    def transfer_any(self, cell: int, to_pe: int) -> None:
        """Move ``cell`` to ``to_pe`` with bounds checks only.

        The escape hatch for *unconstrained* balancer strategies (diffusion,
        SFC repartition): they are not bound by the paper's permanent-cell
        invariants, so permanent cells may move and any PE may receive.
        Ownership conservation still holds -- a cell always has exactly one
        holder -- and :class:`~repro.faults.audit.InvariantAuditor` keeps
        checking it for every strategy.
        """
        if not 0 <= cell < self.n_cells:
            raise ProtocolError(f"cell {cell} out of range")
        if not 0 <= to_pe < self.n_pes:
            raise ProtocolError(f"PE {to_pe} out of range")
        if self.holder[cell] == to_pe:
            raise ProtocolError(f"cell {cell} already held by PE {to_pe}")
        self.holder[cell] = to_pe

    def reset(self) -> None:
        """Return every cell to its home PE."""
        self.holder[...] = self.home

    def validate(self) -> None:
        """Check all structural invariants; raises on violation."""
        if np.any(self.holder[self.permanent] != self.home[self.permanent]):
            raise DecompositionError("a permanent cell is away from home")
        away = np.flatnonzero(self.holder != self.home)
        for cell in away:
            home = int(self.home[cell])
            if int(self.holder[cell]) not in self.lower_neighbors(home):
                raise DecompositionError(
                    f"cell {cell} lent to non-adjacent PE {self.holder[cell]}"
                )


#: Backwards-compatible alias: earlier revisions redistributed whole columns.
ColumnAssignment = CellAssignment
