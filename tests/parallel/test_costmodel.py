"""Compute cost model."""

import numpy as np
import pytest

from repro.config import MachineConfig
from repro.decomp.assignment import CellAssignment
from repro.errors import ConfigurationError
from repro.md.celllist import CellList
from repro.parallel.costmodel import ComputeCostModel, calibrate_tau_pair


@pytest.fixture
def model():
    return ComputeCostModel(MachineConfig(), CellList(box_length=6.0, cells_per_side=6))


class TestCellWork:
    def test_uniform_gas(self, model):
        counts = np.full((6, 6, 6), 4)
        work = model.load(counts).work
        assert np.all(work == 4 * 27 * 4)

    def test_empty_cells_have_no_work(self, model):
        counts = np.zeros((6, 6, 6), dtype=int)
        counts[0, 0, 0] = 5
        work = model.load(counts).work.reshape(6, 6, 6)
        # Only the occupied cell works: 5 particles x 5 in-stencil.
        assert work[0, 0, 0] == 25
        assert work.sum() == 25

    def test_quadratic_in_local_density(self, model):
        sparse = np.zeros((6, 6, 6), dtype=int)
        dense = np.zeros((6, 6, 6), dtype=int)
        sparse[3, 3, 3] = 5
        dense[3, 3, 3] = 10
        assert model.load(dense).work.sum() == 4 * model.load(sparse).work.sum()


class TestPerPEWork:
    def test_force_times_proportional_to_work(self):
        machine = MachineConfig(tau_pair=1.0, tau_particle=0.0, tau_cell=0.0)
        cell_list = CellList(6.0, 6)
        model = ComputeCostModel(machine, cell_list)
        assignment = CellAssignment(6, 9)
        counts = np.full((6, 6, 6), 2)
        work = model.per_pe_work(model.load(counts), assignment.cell_owner_map(), 9)
        per_cell = 2 * 27 * 2
        cells_per_pe = 6**3 // 9
        assert np.allclose(work.force_times, per_cell * cells_per_pe)

    def test_integrate_times_count_owned_particles(self):
        machine = MachineConfig(tau_pair=0.0, tau_particle=1.0, tau_cell=0.0)
        cell_list = CellList(6.0, 6)
        model = ComputeCostModel(machine, cell_list)
        assignment = CellAssignment(6, 9)
        counts = np.full((6, 6, 6), 3)
        work = model.per_pe_work(model.load(counts), assignment.cell_owner_map(), 9)
        assert np.allclose(work.integrate_times, 3 * 24)

    def test_total_work_conserved_across_assignments(self):
        # Moving cells never changes the machine-wide force work.
        machine = MachineConfig()
        cell_list = CellList(9.0, 9)
        model = ComputeCostModel(machine, cell_list)
        assignment = CellAssignment(9, 9)
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 6, (9, 9, 9))
        before = model.per_pe_work(model.load(counts), assignment.cell_owner_map(), 9)
        cell = int(assignment.movable_at_home(4)[0])
        assignment.transfer(cell, assignment.pe_flat(0, 1))
        after = model.per_pe_work(model.load(counts), assignment.cell_owner_map(), 9)
        assert before.force_times.sum() == pytest.approx(after.force_times.sum())
        assert before.compute_times.sum() == pytest.approx(after.compute_times.sum())

    def test_rejects_bad_owner_shape(self, model):
        with pytest.raises(ConfigurationError):
            model.per_pe_work(model.load(np.zeros((6, 6, 6))), np.zeros(5, dtype=int), 4)

    def test_compute_times_is_sum_of_parts(self, model):
        assignment = CellAssignment(6, 9)
        counts = np.full((6, 6, 6), 1)
        work = model.per_pe_work(model.load(counts), assignment.cell_owner_map(), 9)
        assert np.allclose(
            work.compute_times,
            work.force_times + work.integrate_times + work.cell_times,
        )


class TestCalibration:
    def test_returns_positive_time(self):
        tau = calibrate_tau_pair(n_particles=512, repeats=1)
        assert 0 < tau < 1e-3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            calibrate_tau_pair(n_particles=0)
