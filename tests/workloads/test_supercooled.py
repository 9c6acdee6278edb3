"""Supercooled-gas workload factory."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.units import PAPER_CUTOFF, PAPER_DT, PAPER_RESCALE_INTERVAL, PAPER_T_REF
from repro.workloads.supercooled import (
    cells_for,
    supercooled_config,
    supercooled_simulation_config,
)


class TestSupercooledConfig:
    def test_paper_conditions(self):
        config = supercooled_config(8000)
        assert config.temperature == PAPER_T_REF
        assert config.density == 0.256
        assert config.cutoff == PAPER_CUTOFF
        assert config.dt == PAPER_DT
        assert config.rescale_interval == PAPER_RESCALE_INTERVAL

    def test_paper_fig5b_box(self):
        # N=8000 at rho=0.256: L = (8000 / 0.256)^(1/3) = 31.5, C = 12^3.
        config = supercooled_config(8000)
        assert config.box_length == pytest.approx(31.5, abs=0.01)
        assert cells_for(config) == 12


class TestSimulationConfig:
    def test_auto_cell_grid_is_multiple_of_pe_side(self):
        sim = supercooled_simulation_config(8000, 36)
        assert sim.decomposition.cells_per_side % 6 == 0
        assert sim.decomposition.cells_per_side == 12
        assert sim.cell_size >= sim.md.cutoff

    def test_paper_fig5b_parameters(self):
        sim = supercooled_simulation_config(8000, 36)
        assert sim.decomposition.pillar_m == 2
        assert sim.decomposition.n_cells == 1728

    def test_explicit_cell_grid(self):
        sim = supercooled_simulation_config(8000, 9, cells_per_side=12)
        assert sim.decomposition.pillar_m == 4

    def test_rejects_non_square_pes(self):
        with pytest.raises(ConfigurationError):
            supercooled_simulation_config(8000, 8)

    def test_rejects_box_too_small_for_machine(self):
        # 125 particles: L = 7.86, cannot host even one cell per PE row of 6.
        with pytest.raises(ConfigurationError):
            supercooled_simulation_config(125, 36)

    def test_attraction_propagates(self):
        sim = supercooled_simulation_config(8000, 9, attraction=0.3, n_attractors=12)
        assert sim.md.attraction == 0.3
        assert sim.md.n_attractors == 12

    def test_m_formula_consistency(self):
        # m = C^(1/3) / P^(1/2) (Figure 7).
        sim = supercooled_simulation_config(8000, 9, cells_per_side=12)
        assert sim.decomposition.pillar_m == 12 // math.isqrt(9)
