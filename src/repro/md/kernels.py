"""The LJ pair kernel: one copy of the pair math for every force path.

:func:`pair_terms` turns a candidate pair list (possibly beyond the cut-off)
into the per-pair force vectors, energies and squared distances of the pairs
inside it; :func:`forces_from_pairs` scatters those to both endpoints
(Newton's third law) and reduces them. The classic path
(:class:`~repro.md.forces.ForceField`) calls the latter, the per-PE path
(:func:`repro.core.ddm.pe_force_slice`) the former with its own ownership
weighting, so the two share every elementwise operation.

Surviving pairs keep their *original candidate order*: that order is the
floating-point accumulation order of the ``bincount`` force reduction, hence
the reproducibility contract (DESIGN.md section 11 says why there is one
kernel and not a choice of them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pbc import minimum_image_inplace
from .potential import LennardJones


@dataclass(frozen=True)
class ForceResult:
    """Output of one force evaluation.

    Attributes
    ----------
    forces:
        ``(N, 3)`` force array.
    potential_energy:
        Total potential energy (pairs + external attraction).
    virial:
        Pair virial ``sum(f_ij . r_ij)`` (for the pressure).
    n_pairs:
        Number of interacting pairs within the cut-off.
    """

    forces: np.ndarray
    potential_energy: float
    virial: float
    n_pairs: int


def pair_terms(
    positions: np.ndarray,
    candidates: np.ndarray,
    box_length: float,
    potential: LennardJones,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair quantities of the surviving (within-cut-off) candidates.

    ``candidates`` is an ``(M, 2)`` index array. Returns
    ``(i, j, fvec, energies, f_over_r, r_sq)`` filtered to pairs inside the
    cut-off, in original candidate order; ``fvec[k]`` is the force on
    particle ``i[k]`` (and minus the force on ``j[k]``).
    """
    i = candidates[:, 0]
    j = candidates[:, 1]
    # take/compress are the fast spellings of positions[i] / x[mask]; with a
    # skinned candidate list (a third of it beyond the cut-off) they and the
    # in-place subtraction keep this pass near the cost of an exact list.
    delta = np.take(positions, i, axis=0)
    delta -= np.take(positions, j, axis=0)
    minimum_image_inplace(delta, box_length)
    r_sq = np.einsum("ij,ij->i", delta, delta)
    mask = r_sq < potential.cutoff_sq
    if not mask.all():
        i, j, r_sq = np.compress(mask, i), np.compress(mask, j), np.compress(mask, r_sq)
        delta = np.compress(mask, delta, axis=0)
    energies, f_over_r = potential.energy_force_sq(r_sq)
    fvec = delta * f_over_r[:, None]
    return i, j, fvec, energies, f_over_r, r_sq


def forces_from_pairs(
    positions: np.ndarray,
    pairs: np.ndarray,
    box_length: float,
    potential: LennardJones,
    n_particles: int | None = None,
) -> ForceResult:
    """Accumulate LJ forces/energy/virial for an explicit pair list.

    ``pairs`` may contain pairs beyond the cut-off (candidate lists); they are
    filtered by :func:`pair_terms`. Newton's third law is applied, so each
    unordered pair must appear exactly once. The candidate traversal order
    fixes the floating-point accumulation order of the ``bincount`` force
    reduction.
    """
    n = len(positions) if n_particles is None else n_particles
    forces = np.zeros((n, 3), dtype=np.float64)
    i, j, fvec, energies, f_over_r, r_sq = pair_terms(
        positions, pairs, box_length, potential
    )
    for axis in range(3):
        forces[:, axis] += np.bincount(i, weights=fvec[:, axis], minlength=n)
        forces[:, axis] -= np.bincount(j, weights=fvec[:, axis], minlength=n)
    potential_energy = float(energies.sum())
    virial = float(np.dot(f_over_r, r_sq))
    return ForceResult(forces, potential_energy, virial, int(len(i)))


class NumpyKernel:
    """The object :class:`~repro.md.forces.ForceField` evaluates through."""

    # An instance method (not a bare function call in ForceField) because
    # ledger/trace.py wraps ``type(create_kernel(...)).evaluate`` as ``md.kernel``.
    def evaluate(
        self,
        positions: np.ndarray,
        candidates: np.ndarray,
        box_length: float,
        potential: LennardJones,
        n_particles: int | None = None,
    ) -> ForceResult:
        """Reduce a candidate pair list to forces / energy / virial."""
        return forces_from_pairs(positions, candidates, box_length, potential, n_particles)


def create_kernel(name: str = "numpy") -> NumpyKernel:
    # Takes (and ignores) a name only because ledger/trace.py passes one.
    return NumpyKernel()


def resolve_kernel_name(requested: str | None = None) -> str:
    # Exists only because ledger/trace.py calls it to find the kernel class.
    return "numpy"
