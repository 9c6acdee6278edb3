"""The LJ pair kernel: one copy of the pair math for every force path.

:func:`pair_terms` turns a candidate pair list (possibly beyond the cut-off)
into the per-pair force vectors, energies and squared distances of the pairs
inside it; :func:`forces_from_pairs` scatters those to both endpoints
(Newton's third law) and reduces them. The classic path
(:class:`~repro.md.forces.ForceField`) calls the latter, the per-PE path
(:func:`repro.core.ddm.pe_force_slice`) the former with its own ownership
weighting, so the two share every elementwise operation.

Surviving pairs keep their *original candidate order*: that order is the
floating-point accumulation order of the sequential-scatter force reduction,
hence the reproducibility contract (DESIGN.md section 11 says why there is
one kernel and not a choice of them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pbc import minimum_image_inplace
from .potential import LennardJones

# Rows of the candidate list per pair_terms call: its temporaries (under
# 2 MB) then stay cache- and heap-resident instead of being page-faulted in
# again every step. Not a tuning knob (8k-32k measure the same end to end).
_PAIR_BLOCK = 16_384


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
    unordered pair must appear exactly once. The list is streamed through
    :func:`pair_terms` in blocks of ``_PAIR_BLOCK`` rows; the candidate
    traversal order fixes the floating-point accumulation order of the
    sequential scatter.
    """
    n = len(positions) if n_particles is None else n_particles
    plus = np.zeros((3, n), dtype=np.float64)
    minus = np.zeros((3, n), dtype=np.float64)
    # Kept whole because their reductions (pairwise sum, BLAS dot) depend on
    # the full array; every other per-pair quantity lives one block.
    energies = np.empty(len(pairs), dtype=np.float64)
    f_over_r = np.empty(len(pairs), dtype=np.float64)
    r_sq = np.empty(len(pairs), dtype=np.float64)
    kept = 0
    for start in range(0, len(pairs), _PAIR_BLOCK):
        i, j, fvec, block_energies, block_f_over_r, block_r_sq = pair_terms(
            positions, pairs[start : start + _PAIR_BLOCK], box_length, potential
        )
        # add.at is unbuffered and sequential: across blocks every particle
        # gets the terms, in the order, one whole-list bincount would give it.
        for axis in range(3):
            np.add.at(plus[axis], i, fvec[:, axis])
            np.add.at(minus[axis], j, fvec[:, axis])
        block = slice(kept, kept + len(i))
        energies[block] = block_energies
        f_over_r[block] = block_f_over_r
        r_sq[block] = block_r_sq
        kept = block.stop
    forces = np.subtract(plus.T, minus.T, order="C")
    potential_energy = float(energies[:kept].sum())
    virial = float(np.dot(f_over_r[:kept], r_sq[:kept]))
    return ForceResult(forces, potential_energy, virial, kept)


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
