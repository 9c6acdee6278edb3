"""Domain shapes and their communication profiles."""

import pytest

from repro.decomp.shapes import best_shape, domain_comm_volume, domain_shape_info
from repro.errors import ConfigurationError


class TestDomainShapeInfo:
    def test_plane_profile(self):
        info = domain_shape_info("plane", 12, 4)
        assert info.cells_per_domain == 3 * 144
        assert info.ghost_cells == 2 * 144
        assert info.n_neighbors == 2

    def test_pillar_profile(self):
        info = domain_shape_info("pillar", 12, 9)  # m = 4
        assert info.cells_per_domain == 16 * 12
        assert info.ghost_cells == (6 * 6 - 16) * 12
        assert info.n_neighbors == 8

    def test_cube_profile(self):
        info = domain_shape_info("cube", 12, 27)  # m = 4
        assert info.cells_per_domain == 64
        assert info.ghost_cells == 6**3 - 4**3
        assert info.n_neighbors == 26

    def test_single_pe_has_no_ghosts(self):
        assert domain_shape_info("plane", 6, 1).ghost_cells == 0

    def test_rejects_bad_tilings(self):
        with pytest.raises(ConfigurationError):
            domain_shape_info("plane", 7, 2)
        with pytest.raises(ConfigurationError):
            domain_shape_info("pillar", 12, 8)
        with pytest.raises(ConfigurationError):
            domain_shape_info("cube", 12, 9)

    def test_rejects_unknown_shape(self):
        with pytest.raises(ConfigurationError):
            domain_shape_info("donut", 12, 4)


class TestShapeComparison:
    def test_pillar_beats_plane_at_midsize(self):
        # The paper's design argument (Section 2.2): for a mid-size machine
        # the square pillar exchanges less than the plane.
        nc, p = 32, 16
        assert domain_comm_volume("pillar", nc, p) < domain_comm_volume("plane", nc, p)

    def test_plane_wins_on_tiny_machines(self):
        nc, p = 24, 4
        assert domain_comm_volume("plane", nc, p) < domain_comm_volume("pillar", nc, p)

    def test_cube_wins_for_massively_parallel(self):
        # Large machine relative to the grid: cube ghosts are smallest.
        nc, p = 24, 64
        cube = domain_comm_volume("cube", nc, p)
        pillar = domain_comm_volume("pillar", nc, p)
        assert cube < pillar

    def test_pillar_ghosts_stay_on_the_plane_scale(self):
        # Sanity scale: a 36-PE pillar imports fewer ghosts than 24 times a
        # 4-PE plane domain.
        pillar = domain_comm_volume("pillar", 24, 36)
        assert pillar < domain_comm_volume("plane", 24, 4) * 24

    def test_best_shape_midsize(self):
        assert best_shape(32, 16) == "pillar"

    def test_best_shape_raises_when_nothing_tiles(self):
        with pytest.raises(ConfigurationError):
            best_shape(7, 36)
