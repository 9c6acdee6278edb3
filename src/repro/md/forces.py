"""Force evaluation: LJ pair forces plus the optional central attraction."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..obs.events import scope
from .kernels import (  # noqa: F401 -- forces_from_pairs re-exported; historically defined here
    ForceResult,
    create_kernel,
    forces_from_pairs,
)
from .neighbors import (  # noqa: F401 -- pairs_* re-exported for callers/tracers
    NeighborStats,
    VerletList,
    pairs_celllist,
    pairs_kdtree,
)
from .pbc import minimum_image
from .potential import LennardJones
from .system import ParticleSystem


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
    """LJ force field over one cached pair list.

    Pairs come from a :class:`~repro.md.neighbors.VerletList` built by the
    compiled cKDTree search at ``r_c + skin`` and reused until a particle
    moves farther than ``skin/2``. The list is kept in canonical order
    (:func:`~repro.md.neighbors.canonical_pairs`), so forces, energy and
    virial are independent of when it was last rebuilt and bit-identical to
    the paper's linked-cell search
    (:func:`~repro.md.neighbors.pairs_celllist`, the reference
    ``tests/core/test_neighbor_oracle.py`` compares against).

    Parameters
    ----------
    potential:
        The pair potential.
    skin:
        Neighbour-list search margin beyond the cut-off (clamped to what the
        box admits, see :class:`~repro.md.neighbors.VerletList`).
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
        attraction: float = 0.0,
        attractors: np.ndarray | None = None,
        skin: float = 0.4,
    ) -> None:
        if attraction < 0:
            raise ConfigurationError(f"attraction must be non-negative, got {attraction}")
        if skin <= 0:
            raise ConfigurationError(f"skin must be positive, got {skin}")
        self.potential = potential
        self.skin = float(skin)
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
        # The list is box-dependent; it is built lazily on first use.
        self._verlet: VerletList | None = None

    def _get_verlet(self, box_length: float) -> VerletList:
        if self._verlet is None:
            self._verlet = VerletList(
                box_length, self.potential.cutoff, self.skin, stats=self.stats
            )
        elif abs(self._verlet.box_length - box_length) > 1e-9:
            raise ConfigurationError(
                f"Verlet list box {self._verlet.box_length} != system box {box_length}"
            )
        return self._verlet

    @property
    def verlet_list(self) -> VerletList | None:
        """The cached neighbour list (``None`` until first use)."""
        return self._verlet

    def invalidate_cache(self) -> None:
        """Drop any cached neighbour structure (next evaluation rebuilds)."""
        if self._verlet is not None:
            self._verlet.invalidate()

    def find_pairs(self, system: ParticleSystem) -> np.ndarray:
        """Interacting pairs (within the true cut-off), in canonical order."""
        return self._get_verlet(system.box_length).pairs(system.positions)

    def compute(self, system: ParticleSystem) -> ForceResult:
        """Evaluate forces, writing them into ``system.forces`` as well."""
        # Candidates may exceed the cut-off; the kernel filters them.
        pairs = self._get_verlet(system.box_length).candidates(system.positions)
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
        if state.get("verlet") is not None:
            self._get_verlet(box_length).load_state_dict(state["verlet"])
