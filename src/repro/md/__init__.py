"""Molecular-dynamics substrate: Lennard-Jones physics in reduced units.

This subpackage is the serial MD engine the parallel layers build on:
particles, the LJ potential with cut-off, linked cell lists, velocity-form
Verlet integration and the velocity-rescaling thermostat of the paper's
Section 3.2.
"""

from .celllist import CellList, CellSort
from .forces import ForceField, ForceResult
from .kernels import forces_from_pairs, pair_terms
from .neighbors import NeighborStats, VerletList
from .integrator import VelocityVerlet
from .lattice import fcc_positions, maxwell_boltzmann_velocities, simple_cubic_positions
from .observables import kinetic_energy, pressure, temperature
from .pbc import minimum_image, wrap_positions
from .potential import LennardJones
from .simulation import SerialSimulation
from .system import ParticleSystem
from .thermostat import VelocityRescale
from .trajectory_io import read_xyz, write_xyz

__all__ = [
    "CellList",
    "CellSort",
    "ForceField",
    "ForceResult",
    "LennardJones",
    "NeighborStats",
    "VerletList",
    "ParticleSystem",
    "SerialSimulation",
    "VelocityRescale",
    "VelocityVerlet",
    "fcc_positions",
    "forces_from_pairs",
    "kinetic_energy",
    "maxwell_boltzmann_velocities",
    "minimum_image",
    "pair_terms",
    "pressure",
    "read_xyz",
    "simple_cubic_positions",
    "temperature",
    "wrap_positions",
    "write_xyz",
]
