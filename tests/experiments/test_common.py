"""Experiment geometry."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import (
    EXPERIMENT_CELL_SIZE,
    droplets_for,
    geometry_for,
    simulation_config_for,
)


class TestGeometryFor:
    def test_paper_fig5a_shape(self):
        # m=4 on 36 PEs: nc = 24, N close to the paper's 59319 (they used a
        # perfect cube 39^3; we round the density-exact value).
        g = geometry_for(4, 36, 0.256)
        assert g.cells_per_side == 24
        assert abs(g.n_particles - 59319) / 59319 < 0.15

    def test_paper_fig5b_shape(self):
        g = geometry_for(2, 36, 0.256)
        assert g.cells_per_side == 12
        assert abs(g.n_particles - 8000) / 8000 < 0.15

    def test_cell_size_is_constant_across_m(self):
        for m in (2, 3, 4):
            g = geometry_for(m, 16)
            assert g.box_length / g.cells_per_side == pytest.approx(EXPERIMENT_CELL_SIZE)

    def test_density_scales_particles(self):
        low = geometry_for(3, 9, 0.128)
        high = geometry_for(3, 9, 0.512)
        assert high.n_particles == pytest.approx(4 * low.n_particles, rel=0.01)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            geometry_for(0, 9)
        with pytest.raises(ConfigurationError):
            geometry_for(2, 8)


class TestSimulationConfigFor:
    def test_builds_valid_config(self):
        config = simulation_config_for(geometry_for(3, 9))
        assert config.cell_size >= config.md.cutoff
        assert config.decomposition.pillar_m == 3

    def test_dlb_enabled_is_a_compat_input_only(self):
        """``dlb_enabled=True`` (what the frozen ledger passes) changes
        nothing; ``False`` no longer means plain DDM and is refused."""
        geometry = geometry_for(3, 9)
        assert simulation_config_for(geometry, dlb_enabled=True) == (
            simulation_config_for(geometry)
        )
        with pytest.raises(ConfigurationError, match="balancer='none'"):
            simulation_config_for(geometry, dlb_enabled=False)


class TestDropletsFor:
    def test_scales_with_cells(self):
        small = droplets_for(geometry_for(2, 9))
        large = droplets_for(geometry_for(4, 9))
        assert large > small

    def test_has_floor(self):
        assert droplets_for(geometry_for(1, 9)) >= 12
