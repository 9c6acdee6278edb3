"""Initial configurations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.md.lattice import (
    ball_sites_sorted,
    maxwell_boltzmann_velocities,
    simple_cubic_positions,
)
from repro.md.observables import temperature
from repro.md.system import ParticleSystem


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestSimpleCubic:
    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_exact_count_and_bounds(self, n):
        pos = simple_cubic_positions(n, 10.0)
        assert pos.shape == (n, 3)
        assert np.all(pos > 0) and np.all(pos < 10.0)

    def test_rejects_zero_particles(self):
        with pytest.raises(GeometryError):
            simple_cubic_positions(0, 10.0)

    def test_perfect_cube_fills_lattice(self):
        pos = simple_cubic_positions(27, 9.0)
        # 3 sites per side, spacing 3, offset 1.5.
        xs = np.unique(np.round(pos[:, 0], 9))
        assert np.allclose(xs, [1.5, 4.5, 7.5])

    def test_no_duplicate_sites(self):
        pos = simple_cubic_positions(100, 10.0)
        assert len(np.unique(np.round(pos, 9), axis=0)) == 100


class TestMaxwellBoltzmann:
    def test_exact_temperature(self, rng):
        v = maxwell_boltzmann_velocities(500, 0.722, rng)
        system = ParticleSystem(np.zeros((500, 3)) + 1.0, v, 10.0)
        assert temperature(system) == pytest.approx(0.722, rel=1e-12)

    def test_zero_momentum(self, rng):
        v = maxwell_boltzmann_velocities(500, 1.0, rng)
        assert np.allclose(v.sum(axis=0), 0.0, atol=1e-9)

    def test_momentum_kept_if_requested(self, rng):
        v = maxwell_boltzmann_velocities(500, 1.0, rng, zero_momentum=False)
        assert not np.allclose(v.mean(axis=0), 0.0, atol=1e-12)

    def test_zero_temperature_gives_zero_velocities(self, rng):
        v = maxwell_boltzmann_velocities(10, 0.0, rng)
        assert np.all(v == 0.0)

    def test_rejects_negative_temperature(self, rng):
        with pytest.raises(GeometryError):
            maxwell_boltzmann_velocities(10, -1.0, rng)


class TestBallSitesSorted:
    def test_sites_ordered_inside_out(self, rng):
        sites = ball_sites_sorted(50, 3.0, rng, min_separation=1.0)
        norms = np.linalg.norm(sites, axis=1)
        # Jitter is bounded by a quarter spacing, so ordering holds loosely.
        assert norms[-1] > norms[0]
        smooth = np.convolve(norms, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smooth) > -0.5)

    def test_exact_count(self, rng):
        assert ball_sites_sorted(37, 2.0, rng).shape == (37, 3)
