"""Failure injection: the engine must fail loudly, not silently corrupt."""

import numpy as np
import pytest

from repro.config import MDConfig
from repro.errors import ConfigurationError, GeometryError, SimulationError
from repro.md.celllist import CellList
from repro.md.forces import ForceField
from repro.md.integrator import VelocityVerlet
from repro.md.neighbors import pairs_celllist
from repro.md.potential import LennardJones
from repro.md.simulation import SerialSimulation
from repro.md.system import ParticleSystem


class TestNumericalBlowup:
    def test_overlapping_particles_give_finite_but_huge_forces(self):
        # Two particles almost on top of each other: the kernel must not
        # produce NaN (division by exactly zero) for r > 0.
        pos = np.array([[1.0, 1.0, 1.0], [1.0 + 1e-6, 1.0, 1.0]])
        system = ParticleSystem(pos, box_length=10.0)
        result = ForceField(LennardJones()).compute(system)
        assert np.all(np.isfinite(result.forces))
        assert np.abs(result.forces).max() > 1e10

    def test_coincident_particles_raise_simulation_error(self):
        # Exactly coincident particles give r = 0 and a non-finite force;
        # compute() must raise instead of writing NaN into system.forces.
        pos = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [5.0, 5.0, 5.0]])
        system = ParticleSystem(pos, box_length=10.0)
        before = system.forces.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match="non-finite forces"):
                ForceField(LennardJones()).compute(system)
        # The corrupted forces never reached the system arrays.
        assert np.array_equal(system.forces, before)

    def test_giant_time_step_detected_by_validate(self):
        # An absurd dt launches particles at enormous speed; positions stay
        # wrapped (finite) but validate() notices non-finite velocities once
        # the energy cascade overflows, or the state stays finite -- either
        # way validate() must not crash.
        config = MDConfig(n_particles=64, density=0.2, dt=0.001)
        sim = SerialSimulation(config, seed=1)
        sim.integrator = VelocityVerlet(5.0)  # catastrophic dt
        for _ in range(5):
            try:
                sim.integrator.step(sim.system, sim.force_field)
            except FloatingPointError:  # pragma: no cover - platform dependent
                break
        finite = np.all(np.isfinite(sim.system.positions))
        if not finite:
            with pytest.raises(SimulationError):
                sim.system.validate()


class TestConfigurationTraps:
    def test_cells_backend_with_too_fine_grid_raises(self):
        # The linked-cell reference must reject a grid whose cells are smaller
        # than the cut-off, not silently drop interactions.
        config = MDConfig(n_particles=512, density=0.256)
        nc_too_fine = int(config.box_length // config.cutoff) + 2
        sim = SerialSimulation(config, seed=1)
        cells = CellList(config.box_length, nc_too_fine)
        with pytest.raises(GeometryError, match="26-neighbour stencil"):
            pairs_celllist(sim.system.positions, cells, config.cutoff)

    def test_zero_temperature_start_is_usable(self):
        config = MDConfig(n_particles=125, density=0.2, temperature=0.0,
                          rescale_interval=0)
        sim = SerialSimulation(config, seed=1)
        obs = sim.run(3).records[-1]
        assert np.isfinite(obs.total_energy)

    def test_attraction_requires_valid_strength(self):
        with pytest.raises(ConfigurationError):
            ForceField(LennardJones(), attraction=-0.5)
