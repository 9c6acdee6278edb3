"""Compute cost model: from cell occupancy to per-PE work time.

The paper's force loop computes "distances between two molecules with every
combination of molecules within each cell and its neighbouring 26 cells"
(Section 3.2), so the work of cell ``c`` is proportional to
``count(c) * sum_{c' in stencil(c)} count(c')`` candidate evaluations. The
cost model turns those counts into per-PE times using the calibratable
constants of :class:`repro.config.MachineConfig`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import MachineConfig
from ..errors import ConfigurationError
from ..md.celllist import CellList
from ..md.forces import forces_from_pairs
from ..md.neighbors import pairs_kdtree
from ..md.potential import LennardJones


@dataclass(frozen=True)
class CellLoad:
    """A configuration's ``(nc, nc, nc)`` counts and flat ``(C,)`` cell work:
    built once by :meth:`ComputeCostModel.load`, charged every round."""

    counts: np.ndarray
    work: np.ndarray


@dataclass(frozen=True)
class PEWork:
    """Per-PE work decomposition for one step (arrays of shape ``(P,)``)."""

    force_times: np.ndarray
    integrate_times: np.ndarray
    cell_times: np.ndarray

    @property
    def compute_times(self) -> np.ndarray:
        """Total compute (non-communication) time per PE."""
        return self.force_times + self.integrate_times + self.cell_times


class ComputeCostModel:
    """Maps per-cell particle counts + an owner map to per-PE compute times."""

    def __init__(self, machine: MachineConfig, cell_list: CellList) -> None:
        self.machine = machine
        self.cell_list = cell_list

    def load(self, counts_grid: np.ndarray) -> CellLoad:
        """The grid with the candidate pair evaluations charged to each cell.

        ``count(c) * sum over the 27-stencil of counts``: the cell's particles
        against everything in reach, exactly what the paper's kernel checks.
        """
        work = counts_grid * self.cell_list.neighbor_count_sum(counts_grid)
        return CellLoad(counts_grid, work.reshape(-1).astype(np.float64))

    def per_pe_work(self, load: CellLoad, cell_owner: np.ndarray, n_pes: int) -> PEWork:
        """Per-PE compute times for one step.

        ``cell_owner`` is the flat ``(C,)`` owner map. Force time aggregates
        the load's cell work per owner; integration time is per owned particle;
        cell time is per owned cell (rebuild of the cell-molecule relation,
        which the paper's programs redo every step).
        """
        n_cells = self.cell_list.n_cells
        if cell_owner.shape != (n_cells,):
            raise ConfigurationError(f"owner map shape {cell_owner.shape} != ({n_cells},)")
        force = self.machine.tau_pair * np.bincount(cell_owner, load.work, n_pes)
        particles = np.bincount(cell_owner, load.counts.reshape(-1), n_pes)
        integrate = self.machine.tau_particle * particles
        cells = np.bincount(cell_owner, minlength=n_pes).astype(np.float64)
        cell_time = self.machine.tau_cell * cells
        return PEWork(force, integrate, cell_time)


def calibrate_tau_pair(
    n_particles: int = 4096,
    density: float = 0.256,
    cutoff: float = 2.5,
    seed: int = 0,
    repeats: int = 3,
) -> float:
    """Measure the real per-candidate-pair cost of this host's force kernel.

    Runs the actual NumPy force kernel on a random gas and divides wall time
    by the number of candidate evaluations a cell-based loop would make. Use
    the result as ``MachineConfig.tau_pair`` to express simulated times in
    this host's seconds instead of T3E seconds.
    """
    if n_particles <= 0 or repeats <= 0:
        raise ConfigurationError("n_particles and repeats must be positive")
    rng = np.random.default_rng(seed)
    box = (n_particles / density) ** (1.0 / 3.0)
    positions = rng.uniform(0.0, box, size=(n_particles, 3))
    potential = LennardJones(cutoff=cutoff)
    nc = max(3, int(box // cutoff))
    cell_list = CellList(box, nc)
    counts = cell_list.counts(positions)
    candidates = float((counts * cell_list.neighbor_count_sum(counts)).sum())

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        pairs = pairs_kdtree(positions, box, cutoff)
        forces_from_pairs(positions, pairs, box, potential)
        best = min(best, time.perf_counter() - start)
    return best / max(candidates, 1.0)
