"""Linked cell lists on a cubic grid (Section 2.2 of the paper).

The simulation cube is divided into ``nc^3`` cubic cells with edge length at
least the cut-off distance, so every interacting pair lies either in the same
cell or in one of its 26 neighbours. This module owns the geometry (position
to cell mapping, flat indices, periodic stencils) and the occupancy
structures the force kernels and the cost model consume.

Flat cell index convention: ``flat = (ix * nc + iy) * nc + iz``.

The occupancy builders share one :class:`CellSort` -- the assign/argsort/
bincount pipeline run once per position snapshot -- and the periodic stencil
tables (``neighbor_ids``) are computed once per offset and cached, since the
grid geometry never changes over a ``CellList``'s lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError

#: The 13 "half" stencil offsets: one representative of each +/- pair of the
#: 26 neighbour offsets, so iterating them visits every unordered cell pair
#: exactly once (for grids with nc >= 3).
HALF_STENCIL: tuple[tuple[int, int, int], ...] = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
)

#: All 26 neighbour offsets plus the cell itself.
FULL_STENCIL: tuple[tuple[int, int, int], ...] = tuple(
    (dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
)


@dataclass(frozen=True)
class CellSort:
    """Particles sorted by cell: one snapshot's CSR occupancy structure.

    Attributes
    ----------
    flat:
        ``(N,)`` flat cell id of each particle.
    order:
        ``(N,)`` particle indices sorted by cell (stable).
    counts:
        ``(n_cells,)`` particles per cell.
    starts:
        ``(n_cells + 1,)`` CSR offsets: ``order[starts[c]:starts[c+1]]`` are
        the particles in flat cell ``c``.
    """

    flat: np.ndarray
    order: np.ndarray
    counts: np.ndarray
    starts: np.ndarray

    @property
    def n(self) -> int:
        """Number of particles in the snapshot."""
        return len(self.flat)


class CellList:
    """Geometry of a periodic cubic cell grid plus occupancy builders."""

    def __init__(self, box_length: float, cells_per_side: int) -> None:
        if box_length <= 0:
            raise GeometryError(f"box_length must be positive, got {box_length}")
        if cells_per_side <= 0:
            raise GeometryError(f"cells_per_side must be positive, got {cells_per_side}")
        self.box_length = float(box_length)
        self.cells_per_side = int(cells_per_side)
        self.cell_size = self.box_length / self.cells_per_side
        self.n_cells = self.cells_per_side**3
        # Stencil tables depend only on the (immutable) grid geometry; they are
        # computed lazily once per offset instead of 13x per pair search.
        self._all_coords: np.ndarray | None = None
        self._neighbor_ids_cache: dict[tuple[int, int, int], np.ndarray] = {}

    # -- index arithmetic -------------------------------------------------

    def cell_coords(self, positions: np.ndarray) -> np.ndarray:
        """Integer (ix, iy, iz) cell coordinates for wrapped positions."""
        coords = np.floor(positions / self.cell_size).astype(np.int64)
        # Positions exactly at L (possible through rounding) fold to the last cell.
        np.clip(coords, 0, self.cells_per_side - 1, out=coords)
        return coords

    def flatten(self, coords: np.ndarray) -> np.ndarray:
        """Flat cell ids from integer coordinates (no bounds wrapping)."""
        nc = self.cells_per_side
        coords = np.asarray(coords)
        return (coords[..., 0] * nc + coords[..., 1]) * nc + coords[..., 2]

    def unflatten(self, flat: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`flatten`: (..., 3) integer coordinates."""
        nc = self.cells_per_side
        flat = np.asarray(flat)
        return np.stack((flat // (nc * nc), (flat // nc) % nc, flat % nc), axis=-1)

    def assign(self, positions: np.ndarray) -> np.ndarray:
        """Flat cell id of each particle."""
        return self.flatten(self.cell_coords(positions))

    def _coords_table(self) -> np.ndarray:
        if self._all_coords is None:
            self._all_coords = self.unflatten(np.arange(self.n_cells))
        return self._all_coords

    def neighbor_ids(self, offset: tuple[int, int, int]) -> np.ndarray:
        """For every cell, the flat id of its neighbour at ``offset`` (periodic).

        Cached per offset: callers may treat the returned array as read-only.
        """
        key = (int(offset[0]), int(offset[1]), int(offset[2]))
        cached = self._neighbor_ids_cache.get(key)
        if cached is None:
            shifted = (self._coords_table() + np.asarray(key)) % self.cells_per_side
            cached = self.flatten(shifted)
            cached.setflags(write=False)
            self._neighbor_ids_cache[key] = cached
        return cached

    # -- occupancy structures ---------------------------------------------

    def counts(self, positions: np.ndarray) -> np.ndarray:
        """Particles per cell as an ``(nc, nc, nc)`` integer grid."""
        flat = self.assign(positions)
        grid = np.bincount(flat, minlength=self.n_cells)
        return grid.reshape((self.cells_per_side,) * 3)

    def cell_sort(self, positions: np.ndarray) -> CellSort:
        """Run the assign/argsort/bincount pipeline once for a snapshot.

        Every occupancy consumer (:meth:`sorted_particles`, the candidate
        generator in :mod:`repro.md.neighbors`) accepts the returned
        :class:`CellSort`, so one sort serves any number of consumers per step.
        """
        flat = self.assign(positions)
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=self.n_cells)
        starts = np.zeros(self.n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        return CellSort(flat=flat, order=order, counts=counts, starts=starts)

    def sorted_particles(
        self, positions: np.ndarray, sort: CellSort | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Particle indices sorted by cell, plus per-cell start offsets.

        Returns ``(order, starts)`` where ``order[starts[c]:starts[c+1]]`` are
        the particles in flat cell ``c``. Pass a precomputed ``sort`` to reuse
        an existing :meth:`cell_sort` of the same snapshot.
        """
        if sort is None:
            sort = self.cell_sort(positions)
        return sort.order, sort.starts

    def neighbor_count_sum(self, counts_grid: np.ndarray) -> np.ndarray:
        """Sum of particle counts over each cell's 27-cell neighbourhood.

        This is the per-cell work estimator of the paper's force loop, which
        checks "every combination of molecules within each cell and its
        neighbouring 26 cells" (Section 3.2): the number of candidate
        distance evaluations for cell ``c`` is
        ``counts[c] * neighbor_count_sum(counts)[c]`` (self pairs double
        counted consistently across cells, which is what the real kernel does
        when each PE computes its own cells' forces from scratch).

        The 3x3x3 periodic box sum factors into one three-term pass per axis
        (exact for the integer grids every caller passes).
        """
        if counts_grid.shape != (self.cells_per_side,) * 3:
            raise GeometryError(
                f"counts grid shape {counts_grid.shape} does not match "
                f"({self.cells_per_side},)*3"
            )
        total = counts_grid
        for axis in range(3):
            total = total + np.roll(total, 1, axis) + np.roll(total, -1, axis)
        return total
