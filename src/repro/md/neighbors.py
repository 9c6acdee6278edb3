"""Pair finding: who interacts with whom within the cut-off.

``VerletList``
    the one pair search of the simulation: a canonically ordered list built
    by scipy's periodic cKDTree (``pairs_kdtree``, compiled C) at
    ``cutoff + skin`` and reused across steps until any particle moves
    farther than ``skin / 2``. :class:`repro.md.forces.ForceField` evaluates
    over it, and every engine unit keeps its own copy of it.
``pairs_celllist``
    the paper's linked-cell search over the 26-neighbour stencil, vectorised
    with a CSR (sorted-run) candidate generator -- pure NumPy, linear in the
    actual candidate count. No run searches with it: it is the reference
    the neighbour oracle (``tests/core/test_neighbor_oracle.py``) compares
    the cached list against, every step.

:func:`canonical_pairs` fixes the row order the kernel is fed, so forces are
a function of the positions alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..errors import GeometryError
from ..obs.events import scope
from .celllist import HALF_STENCIL, CellList, CellSort
from .pbc import minimum_image, minimum_image_inplace


#: Pairs per block of the cut-off filter: bounds its displacement temporaries
#: (a few MB) whatever the length of the list, and keeps them cache-resident.
_FILTER_BLOCK = 32768


def _within_cutoff(
    positions: np.ndarray, pairs: np.ndarray, box_length: float, cutoff: float
) -> np.ndarray:
    """Rows of ``pairs`` closer than ``cutoff`` (open interval), order preserved."""
    keep = np.empty(len(pairs), dtype=bool)
    for start in range(0, len(pairs), _FILTER_BLOCK):
        block = pairs[start : start + _FILTER_BLOCK]
        delta = np.take(positions, block[:, 0], axis=0)
        delta -= np.take(positions, block[:, 1], axis=0)
        minimum_image_inplace(delta, box_length)
        keep[start : start + _FILTER_BLOCK] = (
            np.einsum("ij,ij->i", delta, delta) < cutoff * cutoff
        )
    return np.ascontiguousarray(np.compress(keep, pairs, axis=0), dtype=np.int64)


def pairs_kdtree(positions: np.ndarray, box_length: float, cutoff: float) -> np.ndarray:
    """All unordered pairs within ``cutoff`` under periodic boundaries.

    Returns an ``(n_pairs, 2)`` int array. Pairs at exactly the cut-off
    distance are excluded (open interval), matching :func:`pairs_celllist`.
    """
    if cutoff <= 0:
        raise GeometryError(f"cutoff must be positive, got {cutoff}")
    if 2.0 * cutoff > box_length:
        raise GeometryError(
            f"cutoff {cutoff} too large for box {box_length} (needs L >= 2*r_c)"
        )
    if len(positions) == 0:
        return np.empty((0, 2), dtype=np.int64)
    with scope("pairs.kdtree"):
        tree = cKDTree(positions, boxsize=box_length)
        pairs = tree.query_pairs(cutoff, output_type="ndarray")
        # query_pairs uses a closed ball; drop pairs at exactly the cut-off so
        # both searches implement the same open interval r < r_c.
        return _within_cutoff(positions, pairs, box_length, cutoff)


def candidate_pairs_celllist(
    positions: np.ndarray, cell_list: CellList, sort: CellSort | None = None
) -> np.ndarray:
    """All particle pairs sharing a cell or sitting in adjacent cells.

    This is the raw candidate set the paper's force loop iterates ("every
    combination of molecules within each cell and its neighbouring 26
    cells"), before the distance test. Requires ``nc >= 3`` so the periodic
    half stencil visits each unordered cell pair exactly once.

    The generator walks the CSR cell sort (``order``/``starts``) with
    ``np.repeat``-built index arithmetic, so its cost is linear in the number
    of candidates actually emitted, however skewed the occupancies. Pass a
    precomputed ``sort`` to reuse a snapshot's
    :meth:`repro.md.celllist.CellList.cell_sort`.
    """
    if cell_list.cells_per_side < 3:
        raise GeometryError(
            f"cell-list pair search needs >= 3 cells per side, got {cell_list.cells_per_side}"
        )
    if len(positions) == 0:
        return np.empty((0, 2), dtype=np.int64)
    with scope("pairs.csr_candidates"):
        if sort is None:
            sort = cell_list.cell_sort(positions)
        order, counts, starts = sort.order, sort.counts, sort.starts
        n = sort.n

        chunks: list[np.ndarray] = []

        # Intra-cell pairs: each sorted slot pairs with every later slot of its
        # cell's run, so slot s contributes (run_end - s - 1) pairs.
        sorted_cells = sort.flat[order]
        slots = np.arange(n, dtype=np.int64)
        reps = starts[sorted_cells + 1] - slots - 1
        total = int(reps.sum())
        if total:
            a_slots = np.repeat(slots, reps)
            seg_start = np.cumsum(reps) - reps
            offsets = np.arange(total, dtype=np.int64) - np.repeat(seg_start, reps)
            b_slots = a_slots + 1 + offsets
            chunks.append(np.column_stack((order[a_slots], order[b_slots])))

        # Inter-cell pairs: for each of the 13 half offsets, the cross product
        # of each occupied cell's run with its (occupied) neighbour's run.
        occupied = np.flatnonzero(counts > 0)
        for offset in HALF_STENCIL:
            neighbor = cell_list.neighbor_ids(offset)
            nbr = neighbor[occupied]
            mask = counts[nbr] > 0
            cells = occupied[mask]
            if len(cells) == 0:
                continue
            nbr = nbr[mask]
            count_a = counts[cells]
            count_b = counts[nbr]
            per_cell = count_a * count_b
            total = int(per_cell.sum())
            cell_idx = np.repeat(np.arange(len(cells), dtype=np.int64), per_cell)
            seg_start = np.cumsum(per_cell) - per_cell
            within = np.arange(total, dtype=np.int64) - seg_start[cell_idx]
            local_b = count_b[cell_idx]
            local_a = within // local_b
            a = order[starts[cells][cell_idx] + local_a]
            b = order[starts[nbr][cell_idx] + within - local_a * local_b]
            chunks.append(np.column_stack((a, b)))

        if not chunks:
            return np.empty((0, 2), dtype=np.int64)
        return np.ascontiguousarray(np.concatenate(chunks, axis=0), dtype=np.int64)


def pairs_celllist(
    positions: np.ndarray,
    cell_list: CellList,
    cutoff: float,
    sort: CellSort | None = None,
) -> np.ndarray:
    """Unordered pairs within ``cutoff`` found through the linked-cell search."""
    if cutoff > cell_list.cell_size + 1e-12:
        raise GeometryError(
            f"cutoff {cutoff} exceeds cell size {cell_list.cell_size}: "
            "the 26-neighbour stencil would miss pairs"
        )
    candidates = candidate_pairs_celllist(positions, cell_list, sort=sort)
    return _within_cutoff(positions, candidates, cell_list.box_length, cutoff)


def canonical_pairs(pairs: np.ndarray) -> np.ndarray:
    """Sort a pair list into canonical order (min first, lexicographic rows).

    The kernel filters candidates *preserving their order*, so feeding it
    canonical rows makes the accepted-pair sequence -- hence the
    floating-point accumulation order of forces, energy and virial -- a
    function of the positions alone, whichever search found the pairs and
    whenever the list was last rebuilt. One int64 key per row keeps this a
    single ``sort`` (about 12x faster than ``lexsort`` on 2e5 rows).
    """
    if len(pairs) == 0:
        return np.empty((0, 2), dtype=np.int64)
    keys = np.minimum(pairs[:, 0], pairs[:, 1], dtype=np.int64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1], dtype=np.int64)
    base = int(hi.max()) + 1
    keys *= base
    keys += hi
    keys.sort()
    out = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, base, out=(out[:, 0], out[:, 1]))
    return out


# -- Verlet neighbour-list caching ----------------------------------------


@dataclass
class NeighborStats:
    """Counters of the pair-search layer (surfaced via instrumentation).

    Attributes
    ----------
    rebuilds:
        Full pair searches executed.
    reuses:
        Steps served from a cached Verlet list without a search.
    candidate_pairs:
        Candidates emitted by the last search (the ``cutoff + skin`` ball of
        the cached list).
    accepted_pairs:
        Pairs within the true cut-off at the last force evaluation.
    total_candidates, total_accepted:
        Running sums of the above across the run.
    """

    rebuilds: int = 0
    reuses: int = 0
    candidate_pairs: int = 0
    accepted_pairs: int = 0
    total_candidates: int = 0
    total_accepted: int = 0

    def record_build(self, n_candidates: int) -> None:
        """Account one full pair search producing ``n_candidates``."""
        self.rebuilds += 1
        self.candidate_pairs = int(n_candidates)

    def record_reuse(self) -> None:
        """Account one step served from the cache."""
        self.reuses += 1

    def record_evaluation(self, n_candidates: int, n_accepted: int) -> None:
        """Account one force evaluation's candidate/accepted pair counts."""
        self.candidate_pairs = int(n_candidates)
        self.accepted_pairs = int(n_accepted)
        self.total_candidates += int(n_candidates)
        self.total_accepted += int(n_accepted)

    @property
    def evaluations(self) -> int:
        """Force evaluations seen (rebuilds + cache reuses)."""
        return self.rebuilds + self.reuses

    @property
    def reuse_ratio(self) -> float:
        """Fraction of evaluations served without a pair search."""
        total = self.evaluations
        return self.reuses / total if total else 0.0

    @property
    def acceptance_ratio(self) -> float:
        """Accepted / candidate pairs over the run (search selectivity)."""
        return self.total_accepted / self.total_candidates if self.total_candidates else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """Flat summary for reports and machine-readable dumps."""
        return {
            "rebuilds": self.rebuilds,
            "reuses": self.reuses,
            "reuse_ratio": self.reuse_ratio,
            "candidate_pairs": self.candidate_pairs,
            "accepted_pairs": self.accepted_pairs,
            "acceptance_ratio": self.acceptance_ratio,
        }

    def state_dict(self) -> dict[str, int]:
        """Checkpoint snapshot of the raw counters."""
        return asdict(self)

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        for name, value in state.items():
            setattr(self, name, int(value))


class VerletList:
    """A reusable, canonically ordered pair list with a skin radius.

    The list is built with search radius ``cutoff + skin`` and stays valid as
    long as no particle has moved farther than ``skin / 2`` from its position
    at build time: two particles outside ``cutoff + skin`` then cannot have
    approached within ``cutoff``. That minimum-image test is exact, so it is
    the only rebuild trigger: the expensive search (:func:`pairs_kdtree`,
    the only one any run uses) runs once every
    ~50 steps of the paper-regime workload instead of every step. Rows are
    kept in :func:`canonical_pairs` order, so the list is a pure function of
    its build-time positions.

    Parameters
    ----------
    box_length:
        Periodic box edge (``L >= 2 * cutoff``).
    cutoff:
        True interaction cut-off ``r_c``.
    skin:
        Extra search margin (> 0). Larger skins rebuild less often but carry
        more candidates per evaluation. The periodic search admits radii up
        to ``L / 2`` only, so in small boxes the effective :attr:`skin` is
        clamped to ``L / 2 - cutoff``; at zero the list degrades to a search
        on every move.
    stats:
        Optional shared :class:`NeighborStats` to count into.
    """

    def __init__(
        self,
        box_length: float,
        cutoff: float,
        skin: float,
        stats: NeighborStats | None = None,
    ) -> None:
        if cutoff <= 0:
            raise GeometryError(f"cutoff must be positive, got {cutoff}")
        if skin <= 0:
            raise GeometryError(f"skin must be positive, got {skin}")
        if 2.0 * cutoff > box_length:
            raise GeometryError(
                f"cutoff {cutoff} too large for box {box_length} (needs L >= 2*r_c)"
            )
        self.box_length = float(box_length)
        self.cutoff = float(cutoff)
        #: Search radius of the cached list: ``cutoff + skin``, at most ``L/2``.
        self.radius = min(self.cutoff + float(skin), 0.5 * self.box_length)
        #: Effective skin (the requested one unless the box clamps it).
        self.skin = self.radius - self.cutoff
        self.stats = stats if stats is not None else NeighborStats()
        self._pairs: np.ndarray | None = None
        self._reference: np.ndarray | None = None

    @property
    def is_built(self) -> bool:
        """Whether a cached list currently exists."""
        return self._pairs is not None

    def invalidate(self) -> None:
        """Drop the cached list (next :meth:`candidates` call rebuilds)."""
        self._pairs = None
        self._reference = None

    def state_dict(self) -> dict:
        """Checkpoint snapshot of the cache: build positions, not the pairs.

        The canonical list is reproducible from its build-time reference
        positions, so the ``(M, 2)`` array itself is never pickled.
        """
        return {
            "reference": None if self._reference is None else self._reference.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot by re-searching its reference.

        The rebuild is not counted in :attr:`stats` (the original build was).
        """
        reference = state["reference"]
        self._reference = None if reference is None else np.array(reference, copy=True)
        self._pairs = None if reference is None else self._search(self._reference)

    def max_displacement_sq(self, positions: np.ndarray) -> float:
        """Largest squared displacement since the last build (minimum image)."""
        if self._reference is None or len(positions) != len(self._reference):
            return np.inf
        delta = minimum_image(positions - self._reference, self.box_length)
        return float(np.einsum("ij,ij->i", delta, delta).max(initial=0.0))

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """True when the cached list no longer covers ``positions``."""
        if self._pairs is None:
            return True
        half_skin = 0.5 * self.skin
        return self.max_displacement_sq(positions) > half_skin * half_skin

    def _search(self, positions: np.ndarray) -> np.ndarray:
        return canonical_pairs(pairs_kdtree(positions, self.box_length, self.radius))

    def build(self, positions: np.ndarray) -> np.ndarray:
        """Run the full pair search at ``cutoff + skin`` and cache the result."""
        with scope("pairs.verlet_build"):
            self._pairs = self._search(positions)
            self._reference = np.array(positions, copy=True)
            self.stats.record_build(len(self._pairs))
            return self._pairs

    def candidates(self, positions: np.ndarray) -> np.ndarray:
        """Candidate pairs covering every interaction of ``positions``.

        Rebuilds when stale, otherwise returns the cached list (a superset of
        the true pair set; callers filter by the actual cut-off).
        """
        if self.needs_rebuild(positions):
            return self.build(positions)
        self.stats.record_reuse()
        assert self._pairs is not None
        return self._pairs

    def pairs(self, positions: np.ndarray) -> np.ndarray:
        """Exact pairs within ``cutoff`` (cached candidates + distance filter)."""
        return _within_cutoff(
            positions, self.candidates(positions), self.box_length, self.cutoff
        )
