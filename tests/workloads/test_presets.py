"""Named workload presets."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.presets import PRESETS, get_preset


class TestRegistry:
    def test_paper_presets_exist(self):
        assert "fig5a-paper" in PRESETS
        assert "fig5b-paper" in PRESETS

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_preset("fig5c")

    def test_lookup(self):
        assert get_preset("fig5b-paper").n_particles == 8000


class TestPaperParameters:
    def test_fig5a_matches_paper(self):
        # m=4, N=59319, C=13824 (24^3), 36 PEs.
        preset = get_preset("fig5a-paper")
        assert preset.n_particles == 59319
        assert preset.cells_per_side == 24
        assert preset.n_pes == 36
        assert preset.m == 4

    def test_fig5b_matches_paper(self):
        preset = get_preset("fig5b-paper")
        assert preset.n_particles == 8000
        assert preset.cells_per_side == 12
        assert preset.m == 2

    def test_paper_grid_rule(self):
        # "the size of the cells is equal to r_c, or a little larger": the
        # largest multiple of sqrt(P) whose cell still covers the cut-off.
        for name, grid in (("fig5a-paper", 24), ("fig5b-paper", 12)):
            config = get_preset(name).simulation_config()
            side = config.decomposition.pe_side
            assert config.decomposition.cells_per_side == grid
            assert grid % side == 0
            assert config.md.box_length / grid >= config.md.cutoff
            assert config.md.box_length / (grid + side) < config.md.cutoff

    def test_scaled_presets_preserve_m(self):
        assert get_preset("fig5a-scaled").m == get_preset("fig5a-paper").m
        assert get_preset("fig5b-scaled").m == get_preset("fig5b-paper").m

    def test_scaled_presets_preserve_density(self):
        for name in ("fig5a-scaled", "fig5b-scaled"):
            assert get_preset(name).density == 0.256


class TestMaterialisation:
    @pytest.mark.parametrize("name", sorted(set(PRESETS) - {"fig5a-paper", "fig5b-paper"}))
    def test_scaled_presets_build_valid_configs(self, name):
        preset = get_preset(name)
        config = preset.simulation_config()
        assert config.decomposition.pillar_m == preset.m
        assert config.cell_size >= config.md.cutoff

    def test_paper_presets_build_valid_configs(self):
        for name in ("fig5a-paper", "fig5b-paper"):
            config = get_preset(name).simulation_config()
            assert config.cell_size >= config.md.cutoff
