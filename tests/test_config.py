"""Configuration validation."""

import pytest

from repro.config import (
    DecompositionConfig,
    DLBConfig,
    MachineConfig,
    MDConfig,
    RunConfig,
    SimulationConfig,
)
from repro.errors import ConfigurationError


class TestMDConfig:
    def test_paper_defaults(self):
        config = MDConfig(n_particles=8000)
        assert config.density == 0.256
        assert config.temperature == 0.722
        assert config.cutoff == 2.5
        assert config.dt == 0.001
        assert config.rescale_interval == 50

    def test_box_length(self):
        config = MDConfig(n_particles=8000, density=0.256)
        assert config.box_length == pytest.approx((8000 / 0.256) ** (1 / 3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_particles": 0},
            {"n_particles": 100, "density": 0.0},
            {"n_particles": 1000, "temperature": -1.0},
            {"n_particles": 1000, "cutoff": 0.0},
            {"n_particles": 1000, "dt": 0.0},
            {"n_particles": 1000, "rescale_interval": -1},
            {"n_particles": 1000, "attraction": -0.1},
            {"n_particles": 1000, "n_attractors": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            MDConfig(**kwargs)

    def test_rejects_box_too_small_for_minimum_image(self):
        # Few particles at high density: box under 2 * r_c.
        with pytest.raises(ConfigurationError):
            MDConfig(n_particles=8, density=0.5)


class TestDecompositionConfig:
    def test_pillar_m(self):
        config = DecompositionConfig(cells_per_side=12, n_pes=36)
        assert config.pillar_m == 2
        assert config.pe_side == 6
        assert config.n_cells == 1728

    def test_plane_needs_divisibility(self):
        DecompositionConfig(cells_per_side=12, n_pes=4, shape="plane")
        with pytest.raises(ConfigurationError):
            DecompositionConfig(cells_per_side=12, n_pes=5, shape="plane")

    def test_pillar_needs_square_pes(self):
        with pytest.raises(ConfigurationError):
            DecompositionConfig(cells_per_side=12, n_pes=8, shape="pillar")

    def test_pillar_needs_divisible_grid(self):
        with pytest.raises(ConfigurationError):
            DecompositionConfig(cells_per_side=13, n_pes=9, shape="pillar")

    def test_cube_needs_cubic_pes(self):
        DecompositionConfig(cells_per_side=12, n_pes=27, shape="cube")
        with pytest.raises(ConfigurationError):
            DecompositionConfig(cells_per_side=12, n_pes=36, shape="cube")

    def test_rejects_unknown_shape(self):
        with pytest.raises(ConfigurationError):
            DecompositionConfig(cells_per_side=12, n_pes=4, shape="sphere")


class TestDLBConfig:
    def test_defaults(self):
        config = DLBConfig()
        assert config.interval == 1
        # Whether a run balances is its balancer name ("none" is plain DDM).
        assert not hasattr(config, "enabled")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0},
            {"max_sends_per_step": 0},
            {"policy": "oracle"},
            {"threshold": -0.1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            DLBConfig(**kwargs)


class TestMachineConfig:
    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(latency=-1.0)
        with pytest.raises(ConfigurationError):
            MachineConfig(bytes_per_particle=0)


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": -1},
            {"steps": 1, "record_interval": 0},
            {"steps": 1, "force_backend": "gpu"},
            {"steps": 1, "force_backend": "cells"},  # the per-step search is gone
            {"steps": 1, "balancer": "ddm"},  # plain DDM is "none"
            {"steps": 1, "skin": 0.0},
            {"steps": 1, "skin": -0.2},
            {"steps": 1, "balancer": "auto"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunConfig(**kwargs)

    def test_verlet_backend_accepted(self):
        config = RunConfig(steps=1, force_backend="verlet", skin=0.3)
        assert config.force_backend == "verlet"
        assert config.skin == 0.3


class TestSimulationConfig:
    def test_cell_size_must_cover_cutoff(self):
        md = MDConfig(n_particles=8000, density=0.256)  # L = 31.5
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                md=md, decomposition=DecompositionConfig(cells_per_side=18, n_pes=9)
            )

    def test_valid_combination(self):
        md = MDConfig(n_particles=8000, density=0.256)
        config = SimulationConfig(
            md=md, decomposition=DecompositionConfig(cells_per_side=12, n_pes=9)
        )
        assert config.cell_size == pytest.approx(31.5 / 12, abs=0.01)
