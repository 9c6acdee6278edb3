"""The LJ pair kernel: one copy of the pair math and one force pass.

:func:`pair_terms` turns a candidate pair list (possibly beyond the cut-off)
into the per-pair force vectors, energies and squared distances of the pairs
inside it. A force pass cuts the canonical list into force blocks by first
particle index (:func:`block_rows`), reduces each block to a partial force
array, energy and virial (:func:`block_partial`) and folds the partials in
block order (:func:`fold_partials`). :func:`fold_blocks` runs all three
in-process (:func:`forces_from_pairs` first puts any list into canonical
order); the multiprocess engine computes the partials in its units and
folds them with the same function, so every path gives the same bits.

A block holds the pairs whose first index lies in its particle range, and
surviving pairs keep their candidate order, so a block's accepted pairs --
hence the result -- are a function of the positions alone, whichever
beyond-cut-off rows a skinned list carries and whenever it was last rebuilt
(DESIGN.md section 11).

Layout: a pass makes one column-major copy of the positions, and the
canonical list is column-major too, so a block's ``i``/``j`` columns and
each coordinate row gather contiguously into ``(3, m)`` displacements
(:func:`~repro.md.pbc.pair_displacements`). Every step is elementwise and
``r²`` is summed in one fixed order (:func:`~repro.md.pbc.squared_norms`),
so the layout moves no bit.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .neighbors import canonical_pairs
from .pbc import pair_displacements
from .potential import LennardJones

#: Particles per force block: a canonical pair list is cut where its first
#: index crosses a multiple of this. Part of the numerical definition: every
#: path folds the same blocks in the same order, so changing it moves every
#: MD digest.
_BLOCK_PARTICLES = 1024

#: One block's reduction: ``((3, n) forces, energy, virial, accepted pairs)``.
Partial = tuple[np.ndarray, float, float, int]


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
    particle ``i[k]`` (and minus the force on ``j[k]``). Column-major
    ``positions`` and candidates (as :func:`fold_blocks` and
    :func:`~repro.md.neighbors.canonical_pairs` hand them over) make every
    gather contiguous; any layout gives the same bits.
    """
    i = candidates[:, 0]
    j = candidates[:, 1]
    delta, r_sq = pair_displacements(positions, i, j, box_length)
    mask = r_sq < potential.cutoff_sq
    if not mask.all():
        # compress is the fast spelling of x[mask]; with a skinned candidate
        # list a third of the rows are beyond the cut-off.
        i, j, r_sq = np.compress(mask, i), np.compress(mask, j), np.compress(mask, r_sq)
        delta = np.compress(mask, delta, axis=1)
    energies, f_over_r = potential.energy_force_sq(r_sq)
    # (3, m), so each axis is a contiguous bincount weight vector.
    delta *= f_over_r
    return i, j, delta.T, energies, f_over_r, r_sq


def n_blocks(n_particles: int) -> int:
    """Force blocks of an ``n_particles`` system (a function of N alone)."""
    return -(-n_particles // _BLOCK_PARTICLES)


def block_rows(pairs: np.ndarray, n_particles: int) -> np.ndarray:
    """Row offsets of the force blocks of ``pairs`` (first column ascending).

    Block ``k`` is ``pairs[rows[k]:rows[k + 1]]``: the pairs whose first
    index lies in ``[k, k + 1) * _BLOCK_PARTICLES``.
    """
    edges = np.arange(n_blocks(n_particles) + 1) * _BLOCK_PARTICLES
    return np.searchsorted(pairs[:, 0], edges)


def block_partial(
    positions: np.ndarray,
    pairs: np.ndarray,
    box_length: float,
    potential: LennardJones,
    out: np.ndarray,
) -> Partial:
    """Reduce one block's pairs, writing its forces into ``out`` ``(3, n)``.

    Newton's third law: ``bincount`` adds each particle's terms in candidate
    order, its ``i`` terms and its ``j`` terms apart. Energy and virial are
    ``np.sum`` of the block's arrays (pairwise, no BLAS).
    """
    i, j, fvec, energies, f_over_r, r_sq = pair_terms(positions, pairs, box_length, potential)
    n = out.shape[1]
    for axis in range(3):
        np.subtract(
            np.bincount(i, weights=fvec[:, axis], minlength=n),
            np.bincount(j, weights=fvec[:, axis], minlength=n),
            out=out[axis],
        )
    return out, float(np.sum(energies)), float(np.sum(f_over_r * r_sq)), len(i)


def fold_partials(partials: Iterable[Partial], n_particles: int) -> ForceResult:
    """Fold block partials in block order: the one reduction of every path."""
    forces = np.zeros((3, n_particles), dtype=np.float64)
    energy = virial = 0.0
    n_pairs = 0
    for block_forces, block_energy, block_virial, block_pairs in partials:
        forces += block_forces
        energy += block_energy
        virial += block_virial
        n_pairs += block_pairs
    return ForceResult(np.ascontiguousarray(forces.T), energy, virial, n_pairs)


def fold_blocks(
    positions: np.ndarray,
    pairs: np.ndarray,
    box_length: float,
    potential: LennardJones,
    n_particles: int,
) -> ForceResult:
    """The force pass in-process: every block of a canonical list, folded."""
    rows = block_rows(pairs, n_particles)
    positions = np.asfortranarray(positions)  # one copy; every block gathers rows
    return fold_partials(
        (
            block_partial(positions, pairs[start:stop], box_length, potential,
                          np.empty((3, n_particles), dtype=np.float64))
            for start, stop in zip(rows[:-1], rows[1:])
        ),
        n_particles,
    )


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
    unordered pair must appear exactly once. A list whose first column is not
    ascending is put into canonical order first, so its blocks are defined.
    """
    if len(pairs) > 1 and (np.diff(pairs[:, 0]) < 0).any():
        pairs = canonical_pairs(pairs)
    n = len(positions) if n_particles is None else n_particles
    return fold_blocks(positions, pairs, box_length, potential, n)


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
        """Reduce a canonical candidate list to forces / energy / virial."""
        n = len(positions) if n_particles is None else n_particles
        return fold_blocks(positions, candidates, box_length, potential, n)


def create_kernel(name: str = "numpy") -> NumpyKernel:
    # Takes (and ignores) a name only because ledger/trace.py passes one.
    return NumpyKernel()


def resolve_kernel_name(requested: str | None = None) -> str:
    # Exists only because ledger/trace.py calls it to find the kernel class.
    return "numpy"
