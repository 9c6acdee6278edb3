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

import functools

import numpy as np

from ..config import DecompositionConfig
from ..errors import DecompositionError, ProtocolError
from .partition import expand_columns_to_cells, pillar_partition


@functools.cache
def classify_permanent_columns(cells_per_side: int, n_pes: int) -> np.ndarray:
    """Boolean mask over *columns*: the permanent wall of each domain.

    Within each PE's ``m x m`` block (local coordinates ``u = cx mod m``,
    ``v = cy mod m``), the permanent columns are the wall row ``u = m-1`` and
    wall column ``v = m-1``: ``2m - 1`` columns, leaving ``(m-1)^2`` movable
    (Section 2.3: for m=2 a quarter of the domain is movable, for m=4 it is
    9/16). The wall sits on the high-coordinate edges because the protocol
    only lends cells toward lower-coordinate neighbours (Case 1). Like
    :func:`~repro.decomp.partition.pillar_partition`, built once per
    ``(nc, P)`` and read-only.
    """
    m = DecompositionConfig(int(cells_per_side), int(n_pes)).pillar_m
    cols = np.arange(cells_per_side**2)
    cx, cy = cols // cells_per_side, cols % cells_per_side
    u, v = cx % m, cy % m
    wall = (u == m - 1) | (v == m - 1)
    wall.setflags(write=False)
    return wall


class CellAssignment:
    """Who holds which cell, with DLB's structural invariants enforced.

    ``home`` and ``permanent`` never change, so everything that depends only
    on them is tabulated once here: each PE's movable home cells, in
    ascending id order and, per Case 1 offset, in the order it lends them
    (:meth:`movable_blocks`), and which PEs are its three lower neighbours
    (``lends_to``). A balancer round reads ``holder`` over such blocks,
    never over the whole map.
    """

    #: The Case 1 offsets, toward the lower neighbours a PE lends to.
    LEND_OFFSETS = ((-1, -1), (-1, 0), (0, -1))
    #: The :meth:`movable_blocks` order by ascending id (Case 3 returns).
    ASCENDING = len(LEND_OFFSETS)

    def __init__(self, cells_per_side: int, n_pes: int) -> None:
        geometry = DecompositionConfig(int(cells_per_side), int(n_pes))
        self.cells_per_side = geometry.cells_per_side
        self.n_cells = geometry.n_cells
        self.n_pes = geometry.n_pes
        self.pe_side = geometry.pe_side
        self.m = geometry.pillar_m
        column_home = pillar_partition(self.cells_per_side, self.n_pes)
        self.home = expand_columns_to_cells(column_home, self.cells_per_side)
        self.holder = self.home.copy()
        column_permanent = classify_permanent_columns(self.cells_per_side, self.n_pes)
        self.permanent = np.repeat(column_permanent, self.cells_per_side)
        nc, m = self.cells_per_side, self.m
        home_cells = np.argsort(self.home, kind="stable").reshape(self.n_pes, -1)
        movable = home_cells[~self.permanent[home_cells]].reshape(self.n_pes, -1)
        column, z = np.divmod(movable, nc)
        u, v = (column // nc) % m, (column % nc) % m
        #: ``(4, P, (m-1)^2 nc)``: ``[order, pe]`` is a :meth:`movable_blocks` row.
        self._movable_orders = np.stack([
            np.take_along_axis(
                movable, np.lexsort((movable, z, u * (di < 0) + v * (dj < 0))), axis=1
            )
            for di, dj in self.LEND_OFFSETS
        ] + [movable])
        pes = np.arange(self.n_pes)[:, None]
        i, j = np.divmod(pes, self.pe_side)
        di, dj = np.array(self.LEND_OFFSETS).T
        #: ``(P, P)``: ``lends_to[home, pe]`` is True when a cell homed at
        #: ``home`` may be lent to ``pe``, one of home's three lower (Case 1)
        #: neighbours.
        self.lends_to = np.zeros((self.n_pes, self.n_pes), dtype=bool)
        self.lends_to[pes, self.pe_flat(i + di, j + dj)] = True
        self.lends_to.setflags(write=False)

    # -- queries -----------------------------------------------------------

    def cells_of(self, pe: int) -> np.ndarray:
        """Cell ids currently held by ``pe``."""
        return np.flatnonzero(self.holder == pe)

    def cell_counts_per_pe(self) -> np.ndarray:
        """Number of cells each PE currently holds."""
        return np.bincount(self.holder, minlength=self.n_pes)

    def movable_at_home(self, pe: int) -> np.ndarray:
        """``pe``'s own movable cells that are currently at home."""
        block = self._movable_orders[self.ASCENDING, pe]
        return block[self.holder[block] == pe]

    def movable_blocks(self, orders: np.ndarray, pes: np.ndarray) -> np.ndarray:
        """Row ``k``: the movable home cells of ``pes[k]``, held or not, by
        ascending id (``orders[k] == ASCENDING``) or in the order ``pes[k]``
        lends them toward ``LEND_OFFSETS[orders[k]]``: nearest the receiver
        first (lowest local ``u``, ``v`` or ``u + v``), then depth ``z``, then
        id. Only movable cells are ever lent."""
        return self._movable_orders[orders, pes]

    def cell_owner_map(self) -> np.ndarray:
        """The flat ``(nc^3,)`` holder map (alias for compatibility)."""
        return self.holder

    def pe_coords(self, pe: int) -> tuple[int, int]:
        """Torus coordinates ``(i, j)`` of a flat PE id."""
        return pe // self.pe_side, pe % self.pe_side

    def pe_flat(self, i: int, j: int) -> int:
        """Flat PE id from torus coordinates (periodic)."""
        side = self.pe_side
        return (i % side) * side + (j % side)

    # -- mutations -----------------------------------------------------------

    def transfer(self, cells, to_pes) -> None:
        """Move ``cells[k]`` to ``to_pes[k]`` for every ``k`` (scalars are a
        batch of one), all or nothing: :class:`ProtocolError` on an
        out-of-range id, a cell listed twice, a permanent cell, a no-op, or a
        destination other than the home or its three lower (Case 1)
        neighbours, before anything moves."""
        cells, to_pes = self._checked(cells, to_pes)
        if self.permanent[cells].any():
            cell = cells[self.permanent[cells]][0]
            raise ProtocolError(f"cell {cell} is permanent and cannot move")
        home = self.home[cells]
        placed = self.lends_to[home, to_pes] | (to_pes == home)
        if not placed.all():
            k = int(np.argmin(placed))
            lower = np.flatnonzero(self.lends_to[home[k]]).tolist()
            raise ProtocolError(
                f"cell {cells[k]} (home PE {home[k]}) may only be lent to the home's "
                f"lower neighbours {lower}, not PE {to_pes[k]}"
            )
        self.holder[cells] = to_pes

    def transfer_any(self, cells, to_pes) -> None:
        """Move ``cells[k]`` to ``to_pes[k]`` with bounds, duplicate and no-op
        checks only (atomic, like :meth:`transfer`).

        The escape hatch for *unconstrained* balancer strategies (diffusion,
        SFC repartition): they are not bound by the paper's permanent-cell
        invariants, so permanent cells may move and any PE may receive.
        Ownership conservation still holds -- a cell always has exactly one
        holder -- and :class:`~repro.faults.audit.InvariantAuditor` keeps
        checking it for every strategy.
        """
        cells, to_pes = self._checked(cells, to_pes)
        self.holder[cells] = to_pes

    def _checked(self, cells, to_pes) -> tuple[np.ndarray, np.ndarray]:
        """``(cells, to_pes)`` as arrays; refuses bad ids, duplicates, no-ops."""
        cells = np.asarray(cells, dtype=np.int64).reshape(-1)
        to_pes = np.asarray(to_pes, dtype=np.int64).reshape(-1)
        if cells.shape != to_pes.shape:
            raise ProtocolError(f"{cells.size} cells for {to_pes.size} PEs")
        # Read as unsigned, a negative id is huge: one bound checks both ends.
        if cells.size and cells.view(np.uint64).max() >= self.n_cells:
            cell = cells[cells.view(np.uint64) >= self.n_cells][0]
            raise ProtocolError(f"cell {cell} out of range")
        if to_pes.size and to_pes.view(np.uint64).max() >= self.n_pes:
            pe = to_pes[to_pes.view(np.uint64) >= self.n_pes][0]
            raise ProtocolError(f"PE {pe} out of range")
        if len(set(cells.tolist())) != cells.size:
            raise ProtocolError(f"a cell is listed twice in one transfer: {cells.tolist()}")
        idle = self.holder[cells] == to_pes
        if idle.any():
            k = int(np.argmax(idle))
            raise ProtocolError(f"cell {cells[k]} already held by PE {to_pes[k]}")
        return cells, to_pes

    def reset(self) -> None:
        """Return every cell to its home PE."""
        self.holder[...] = self.home

    def validate(self) -> None:
        """Check all structural invariants; raises on violation."""
        if np.any(self.holder[self.permanent] != self.home[self.permanent]):
            raise DecompositionError("a permanent cell is away from home")
        stray = np.flatnonzero(~self.lent_to_lower())
        if stray.size:
            raise DecompositionError(
                f"cell {stray[0]} lent to non-adjacent PE {self.holder[stray[0]]}"
            )

    def lent_to_lower(self) -> np.ndarray:
        """Per cell: held at home or by one of its home's lower neighbours."""
        holder, home = self.holder, self.home
        inside = (holder >= 0) & (holder < self.n_pes)
        return (holder == home) | (inside & self.lends_to[home, np.where(inside, holder, 0)])
