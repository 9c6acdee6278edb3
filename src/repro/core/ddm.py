"""Exact decomposed force computation: each PE computes its own cells.

This is the real DDM force pass (as opposed to the cost model's estimate of
it). One neighbour structure is shared by the whole decomposition: the
within-cut-off pairs of the current configuration, in canonical order, with
both endpoints' owner PEs looked up from the current cell-owner map
(:class:`PairTable`). Every PE's slice is cut out of that table -- the pairs
with an owned endpoint, i.e. owned-owned plus owned-ghost -- and accumulates
forces on its owned particles only. Because local ids are ascending global
ids, a slice adds up each owned particle's force in the same order as the
global kernel's sequential scatter of the list, so the merged forces equal
:func:`repro.md.kernels.forces_from_pairs` bit for bit; each pass also reports
every PE's wall-clock seconds and pair count. The execution engines
(:mod:`repro.engine`) run this pass; the sequential engine is the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import DecompositionError
from ..md.celllist import CellList
from ..md.kernels import pair_terms
from ..md.neighbors import _within_cutoff
from ..md.potential import LennardJones


@dataclass(frozen=True)
class DecomposedForceResult:
    """Merged output of a decomposed force pass.

    Attributes
    ----------
    forces:
        ``(N, 3)`` merged forces (identical to the global kernel's).
    potential_energy:
        Total pair energy (each pair counted once).
    per_pe_seconds:
        ``(P,)`` wall-clock seconds each PE's slice took on this host
        (select + pair math + scatter; the shared table is outside it).
    per_pe_pairs:
        ``(P,)`` pairs each PE evaluated (owned-owned and owned-ghost).
    virial:
        Pair virial ``sum(f_ij . r_ij)`` with the same 1.0/0.5 ownership
        weights as the energy (so the merged value matches the global
        kernel's modulo summation order).
    n_candidates:
        Length of the candidate list the pass filtered.
    list_rebuilt:
        Whether the pass ran a pair search to get that list (as opposed to
        reusing a cached one).
    """

    forces: np.ndarray
    potential_energy: float
    per_pe_seconds: np.ndarray
    per_pe_pairs: np.ndarray
    virial: float = 0.0
    n_candidates: int = 0
    list_rebuilt: bool = True


@dataclass(frozen=True)
class PairTable:
    """The pair structure one pass shares between all its PE slices.

    ``pairs`` holds the within-cut-off rows of the candidate list in their
    original (canonical) order, ``owner_i`` / ``owner_j`` the PE owning each
    row's endpoints and ``particle_owner`` every particle's owner, all under
    the *current* cell-owner map.
    """

    pairs: np.ndarray
    owner_i: np.ndarray
    owner_j: np.ndarray
    particle_owner: np.ndarray


def pair_table(
    positions: np.ndarray,
    cell_list: CellList,
    cell_owner: np.ndarray,
    cutoff: float,
    candidates: np.ndarray,
) -> PairTable:
    """Filter ``candidates`` to the cut-off once and look up the owners."""
    if cell_owner.shape != (cell_list.n_cells,):
        raise DecompositionError(
            f"owner map shape {cell_owner.shape} != ({cell_list.n_cells},)"
        )
    particle_owner = cell_owner[cell_list.assign(positions)]
    pairs = _within_cutoff(positions, candidates, cell_list.box_length, cutoff)
    return PairTable(
        pairs, particle_owner[pairs[:, 0]], particle_owner[pairs[:, 1]], particle_owner
    )


@dataclass(frozen=True)
class PEForceSlice:
    """One PE's share of a decomposed force pass.

    The slice is self-contained: ``forces[k]`` is the full force on particle
    ``owned_ids[k]`` (every pair touching an owned particle is evaluated by
    its owner), so merging slices is plain disjoint assignment into the
    global array. Scalars carry the ownership-weighted energy/virial
    contributions, summed over PEs in rank order by every engine's fold —
    which is what lets an execution engine compute slices in any process and
    still produce a digest-identical run (see ``repro.engine``).
    """

    pe: int
    owned_ids: np.ndarray
    forces: np.ndarray
    energy: float
    virial: float
    n_pairs: int
    seconds: float


def pe_force_slice(
    pe: int,
    positions: np.ndarray,
    box_length: float,
    table: PairTable,
    potential: LennardJones,
) -> PEForceSlice:
    """Cut PE ``pe``'s force slice out of the pass's shared pair table.

    This is the one per-PE implementation: the sequential engine calls it
    for every PE in rank order, a multiprocess worker for its shard of PEs. ``seconds`` is the wall clock
    of this call alone.

    The per-pair math is :func:`repro.md.kernels.pair_terms`, the same lines
    the global kernel runs; only the ownership weighting and the scatter onto
    owned rows are this function's own.
    """
    start = time.perf_counter()
    owned_ids = np.flatnonzero(table.particle_owner == pe)
    i_owned = table.owner_i == pe
    j_owned = table.owner_j == pe
    touches = i_owned | j_owned
    pairs = np.compress(touches, table.pairs, axis=0)
    if len(pairs) == 0:  # a PE that owns nothing, or nothing within reach
        return PEForceSlice(
            pe, owned_ids, np.zeros((len(owned_ids), 3), dtype=np.float64),
            0.0, 0.0, 0, time.perf_counter() - start,
        )

    i, j, fvec, energies, f_over_r, r_sq = pair_terms(
        positions, pairs, box_length, potential
    )
    # Only the owned endpoints' forces are this PE's responsibility; a mixed
    # pair's other half is computed by the ghost's owner. Every row touching
    # an owned particle is in the slice, in list order, so its bincount sums
    # are the global kernel's sequential-scatter sums.
    n = len(positions)
    forces = np.empty((len(owned_ids), 3), dtype=np.float64)
    for axis in range(3):
        forces[:, axis] = np.bincount(i, weights=fvec[:, axis], minlength=n)[owned_ids]
        forces[:, axis] -= np.bincount(j, weights=fvec[:, axis], minlength=n)[owned_ids]
    # Energy/virial: both-owned pairs belong fully to this PE; mixed pairs
    # are shared half-half with the neighbouring owner.
    weight = np.where(np.compress(touches, i_owned & j_owned), 1.0, 0.5)
    return PEForceSlice(
        pe=pe,
        owned_ids=owned_ids,
        forces=forces,
        energy=float(np.dot(weight, energies)),
        virial=float(np.dot(weight * f_over_r, r_sq)),
        n_pairs=len(i),
        seconds=time.perf_counter() - start,
    )
