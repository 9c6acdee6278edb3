"""The paper's supercooled-gas conditions (Section 3.2) as the presets build them."""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.units import PAPER_CUTOFF, PAPER_DT, PAPER_RESCALE_INTERVAL, PAPER_T_REF
from repro.workloads.presets import get_preset


class TestSupercooledConfig:
    def test_paper_conditions(self):
        config = get_preset("fig5b-paper").simulation_config().md
        assert config.temperature == PAPER_T_REF
        assert config.density == 0.256
        assert config.cutoff == PAPER_CUTOFF
        assert config.dt == PAPER_DT
        assert config.rescale_interval == PAPER_RESCALE_INTERVAL

    def test_paper_fig5b_box(self):
        # N=8000 at rho=0.256: L = (8000 / 0.256)^(1/3) = 31.5, C = 12^3.
        config = get_preset("fig5b-paper").simulation_config().md
        assert config.box_length == pytest.approx(31.5, abs=0.01)
        assert int(config.box_length // config.cutoff) == 12


class TestSimulationConfig:
    def test_paper_fig5b_parameters(self):
        sim = get_preset("fig5b-paper").simulation_config()
        assert sim.decomposition.pillar_m == 2
        assert sim.decomposition.n_cells == 1728

    def test_explicit_cell_grid(self):
        sim = get_preset("fig5a-scaled").simulation_config()  # N=8000, 12^3, 9 PEs
        assert sim.decomposition.pillar_m == 4

    def test_rejects_non_square_pes(self):
        preset = dataclasses.replace(get_preset("fig5a-scaled"), n_pes=8)
        with pytest.raises(ConfigurationError):
            preset.simulation_config()

    def test_rejects_box_too_small_for_machine(self):
        # 125 particles: L = 7.86, too small for 12 cells of at least r_c.
        preset = dataclasses.replace(get_preset("fig5b-paper"), n_particles=125)
        with pytest.raises(ConfigurationError):
            preset.simulation_config()

    def test_attraction_propagates(self):
        sim = get_preset("fig5a-scaled").simulation_config()
        assert sim.md.attraction == 0.3
        assert sim.md.n_attractors == 12

    def test_m_formula_consistency(self):
        # m = C^(1/3) / P^(1/2) (Figure 7).
        preset = get_preset("fig5a-scaled")
        sim = preset.simulation_config()
        assert sim.decomposition.pillar_m == 12 // math.isqrt(9) == preset.m
