"""Force evaluation: LJ pair forces plus the optional central attraction."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..obs.profiler import scope
from .celllist import CellList
from .kernels import (  # noqa: F401 -- forces_from_pairs re-exported; historically defined here
    ForceResult,
    create_kernel,
    forces_from_pairs,
)
from .neighbors import (  # noqa: F401 -- pairs_kdtree re-exported for callers/tracers
    NeighborStats,
    VerletList,
    canonical_pairs,
    pairs_celllist,
    pairs_kdtree,
)
from .pbc import minimum_image
from .potential import LennardJones
from .system import ParticleSystem

#: Pair-search backends understood by :class:`ForceField`; ``"verlet"`` is a
#: second spelling of ``"kdtree"`` (one cached list, one code path).
BACKENDS = ("kdtree", "cells", "verlet")


def apply_attraction(
    positions: np.ndarray,
    forces: np.ndarray,
    box_length: float,
    attraction: float,
    attractors: np.ndarray | None,
) -> tuple[np.ndarray, float]:
    """Add the harmonic pull toward the nearest nucleation site.

    Returns the new force array (a copy; the input is not mutated) and the
    attraction's potential-energy contribution. ``attractors=None`` means a
    single site at the box centre.
    """
    sites = (
        attractors
        if attractors is not None
        else np.full((1, 3), box_length / 2.0)
    )
    # Pull toward the nearest nucleation site (minimum image).
    delta_all = minimum_image(
        positions[:, None, :] - sites[None, :, :], box_length
    )
    dist_sq = np.einsum("ikj,ikj->ik", delta_all, delta_all)
    nearest = np.argmin(dist_sq, axis=1)
    delta = delta_all[np.arange(len(positions)), nearest]
    new_forces = forces - attraction * delta
    extra_energy = 0.5 * attraction * float(np.sum(delta * delta))
    return new_forces, extra_energy


def check_finite_forces(forces: np.ndarray) -> None:
    """Raise :class:`SimulationError` if any force component is non-finite."""
    if not np.all(np.isfinite(forces)):
        bad = int(np.count_nonzero(~np.isfinite(forces).all(axis=1)))
        raise SimulationError(
            f"non-finite forces on {bad} particle(s): overlapping positions "
            "or a diverged integration (reduce dt or check initial spacing)"
        )


class ForceField:
    """LJ force field with interchangeable pair-search backends.

    Both backends hand the kernel a canonically ordered pair list
    (:func:`~repro.md.neighbors.canonical_pairs`), so forces, energy and
    virial are bit-identical across them and independent of when the cached
    list was last rebuilt.

    Parameters
    ----------
    potential:
        The pair potential.
    backend:
        ``"kdtree"`` (default; ``"verlet"`` is the same path): a
        :class:`~repro.md.neighbors.VerletList` built by the compiled
        cKDTree search at ``r_c + skin`` and reused until a particle moves
        farther than ``skin/2``. ``"cells"``: the linked-cell NumPy
        reference, searched every step.
    cells_per_side:
        Required by the ``"cells"`` backend: grid resolution (cell edge must
        be at least the cut-off).
    skin:
        Neighbour-list search margin beyond the cut-off (clamped to what the
        box admits, see :class:`~repro.md.neighbors.VerletList`).
    max_reuse:
        Cap on consecutive list reuses before a forced rebuild
        (0 = displacement criterion only).
    cell_list:
        Optional pre-built :class:`CellList` to share with the caller (the
        parallel runner already owns one); must match the system's box.
    attraction:
        Spring constant of an optional harmonic pull toward nucleation sites,
        used by scaled workloads to accelerate the supercooled gas's natural
        clustering (see DESIGN.md). 0 disables it.
    attractors:
        ``(K, 3)`` nucleation sites; each particle is pulled toward its
        nearest site (minimum image). ``None`` with a positive ``attraction``
        means a single site at the box centre.
    """

    def __init__(
        self,
        potential: LennardJones,
        backend: str = "kdtree",
        cells_per_side: int | None = None,
        attraction: float = 0.0,
        attractors: np.ndarray | None = None,
        skin: float = 0.4,
        max_reuse: int = 20,
        cell_list: CellList | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ConfigurationError(f"unknown backend {backend!r}")
        if backend == "cells" and cells_per_side is None and cell_list is None:
            raise ConfigurationError("the 'cells' backend requires cells_per_side")
        if attraction < 0:
            raise ConfigurationError(f"attraction must be non-negative, got {attraction}")
        if skin <= 0:
            raise ConfigurationError(f"skin must be positive, got {skin}")
        if max_reuse < 0:
            raise ConfigurationError(f"max_reuse must be non-negative, got {max_reuse}")
        self.potential = potential
        self.backend = backend
        self.cells_per_side = (
            cell_list.cells_per_side if cells_per_side is None and cell_list is not None
            else cells_per_side
        )
        self.skin = float(skin)
        self.max_reuse = int(max_reuse)
        self.attraction = float(attraction)
        if attractors is not None:
            attractors = np.ascontiguousarray(attractors, dtype=np.float64)
            if attractors.ndim != 2 or attractors.shape[1] != 3 or len(attractors) == 0:
                raise ConfigurationError(
                    f"attractors must have shape (K, 3) with K >= 1, got {attractors.shape}"
                )
        self.attractors = attractors
        # An instance, not a bare forces_from_pairs call: ledger/trace.py times
        # the kernel by wrapping this object's class.
        self._kernel = create_kernel()
        #: Pair-search instrumentation (rebuilds, reuses, candidate counts).
        self.stats = NeighborStats()
        # The search structures are box-dependent; build lazily on first use
        # (and exactly once -- rebuilding a CellList per call was the seed's
        # hidden per-step overhead), or adopt the caller's shared CellList.
        self._cell_list: CellList | None = cell_list
        self._verlet: VerletList | None = None

    def _get_cell_list(self, box_length: float) -> CellList:
        if self._cell_list is None:
            self._cell_list = CellList(box_length, int(self.cells_per_side))
        elif abs(self._cell_list.box_length - box_length) > 1e-9:
            raise ConfigurationError(
                f"cell list box {self._cell_list.box_length} != system box {box_length}"
            )
        return self._cell_list

    def _get_verlet(self, box_length: float) -> VerletList:
        if self._verlet is None:
            self._verlet = VerletList(
                box_length,
                self.potential.cutoff,
                self.skin,
                max_reuse=self.max_reuse,
                stats=self.stats,
            )
        elif abs(self._verlet.box_length - box_length) > 1e-9:
            raise ConfigurationError(
                f"Verlet list box {self._verlet.box_length} != system box {box_length}"
            )
        return self._verlet

    @property
    def verlet_list(self) -> VerletList | None:
        """The cached neighbour list (``None`` until first use / ``"cells"``)."""
        return self._verlet

    def invalidate_cache(self) -> None:
        """Drop any cached neighbour structure (next evaluation rebuilds)."""
        if self._verlet is not None:
            self._verlet.invalidate()

    def find_pairs(self, system: ParticleSystem) -> np.ndarray:
        """Interacting pairs (within the true cut-off), in canonical order."""
        if self.backend == "cells":
            return self._candidate_pairs(system)
        return self._get_verlet(system.box_length).pairs(system.positions)

    def _candidate_pairs(self, system: ParticleSystem) -> np.ndarray:
        """Canonical pair list for the kernel (may exceed the cut-off; filtered there)."""
        if self.backend == "cells":
            cell_list = self._get_cell_list(system.box_length)
            pairs = canonical_pairs(
                pairs_celllist(system.positions, cell_list, self.potential.cutoff)
            )
            self.stats.record_build(len(pairs))
            return pairs
        return self._get_verlet(system.box_length).candidates(system.positions)

    def compute(self, system: ParticleSystem) -> ForceResult:
        """Evaluate forces, writing them into ``system.forces`` as well."""
        pairs = self._candidate_pairs(system)
        with scope("force.accumulate"):
            result = self._kernel.evaluate(
                system.positions, pairs, system.box_length, self.potential, system.n
            )
        self.stats.record_evaluation(len(pairs), result.n_pairs)
        forces = result.forces
        potential_energy = result.potential_energy
        if self.attraction > 0.0:
            forces, extra = apply_attraction(
                system.positions, forces, system.box_length,
                self.attraction, self.attractors,
            )
            potential_energy += extra
        check_finite_forces(forces)
        system.forces[...] = forces
        return ForceResult(forces, potential_energy, result.virial, result.n_pairs)

    # -- checkpointing -------------------------------------------------------

    def cache_state(self) -> dict:
        """Snapshot of the pair-search cache and counters.

        The cached list is saved as its build-time reference positions only:
        canonical order makes it (and the kernel's accumulation order)
        reproducible from them, so a resumed run stays bit-identical without
        pickling the pair array.
        """
        return {
            "stats": self.stats.state_dict(),
            "verlet": self._verlet.state_dict() if self._verlet is not None else None,
        }

    def restore_cache_state(self, state: dict, box_length: float) -> None:
        """Restore a snapshot taken by :meth:`cache_state`."""
        self.stats.load_state_dict(state["stats"])
        if state.get("verlet") is not None and self.backend != "cells":
            self._get_verlet(box_length).load_state_dict(state["verlet"])
