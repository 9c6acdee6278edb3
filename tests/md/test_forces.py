"""Force evaluation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md.celllist import CellList
from repro.md.forces import ForceField, forces_from_pairs
from repro.md.neighbors import canonical_pairs, pairs_celllist, pairs_kdtree
from repro.md.potential import LennardJones
from repro.md.system import ParticleSystem


@pytest.fixture
def lj():
    return LennardJones()


class TestForcesFromPairs:
    def test_two_particle_force_matches_analytic(self, lj):
        r = 1.2
        pos = np.array([[1.0, 1.0, 1.0], [1.0 + r, 1.0, 1.0]])
        pairs = np.array([[0, 1]])
        result = forces_from_pairs(pos, pairs, 20.0, lj)
        analytic = lj.force_magnitude(r)
        # Force on particle 0 points away from particle 1 when repulsive.
        assert result.forces[0, 0] == pytest.approx(-analytic)
        assert result.forces[1, 0] == pytest.approx(analytic)
        assert result.potential_energy == pytest.approx(lj.energy(r))

    def test_newtons_third_law(self, lj, rng):
        pos = rng.uniform(0, 9, (80, 3))
        pairs = pairs_kdtree(pos, 9.0, lj.cutoff)
        result = forces_from_pairs(pos, pairs, 9.0, lj)
        # Random gases contain near-overlaps with enormous forces; the net
        # must vanish up to float cancellation relative to that magnitude.
        scale = max(np.abs(result.forces).max(), 1.0)
        assert np.allclose(result.forces.sum(axis=0) / scale, 0.0, atol=1e-12)

    def test_pairs_beyond_cutoff_are_filtered(self, lj):
        pos = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        result = forces_from_pairs(pos, np.array([[0, 1]]), 20.0, lj)
        assert result.n_pairs == 0
        assert np.allclose(result.forces, 0.0)

    def test_empty_pairs(self, lj):
        result = forces_from_pairs(np.zeros((3, 3)), np.empty((0, 2), dtype=int), 10.0, lj)
        assert result.n_pairs == 0
        assert result.potential_energy == 0.0

    def test_periodic_pair_interacts(self, lj):
        pos = np.array([[0.3, 5.0, 5.0], [9.7, 5.0, 5.0]])  # distance 0.6 wrapped
        result = forces_from_pairs(pos, np.array([[0, 1]]), 10.0, lj)
        assert result.n_pairs == 1
        # Strongly repulsive at 0.6: particle 0 pushed in +x (away through the wall).
        assert result.forces[0, 0] > 0
        assert result.forces[1, 0] < 0

    def test_virial_sign_for_repulsive_pair(self, lj):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        result = forces_from_pairs(pos, np.array([[0, 1]]), 20.0, lj)
        assert result.virial > 0  # repulsion -> positive pressure contribution

    def test_virial_sign_for_attractive_pair(self, lj):
        pos = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        result = forces_from_pairs(pos, np.array([[0, 1]]), 20.0, lj)
        assert result.virial < 0

    def test_energy_is_sum_of_pair_energies(self, lj, rng):
        pos = rng.uniform(0, 9, (50, 3))
        pairs = pairs_kdtree(pos, 9.0, lj.cutoff)
        result = forces_from_pairs(pos, pairs, 9.0, lj)
        from repro.md.pbc import pair_distance

        expected = float(
            np.sum(lj.energy(pair_distance(pos[pairs[:, 0]], pos[pairs[:, 1]], 9.0)))
        )
        assert result.potential_energy == pytest.approx(expected, rel=1e-9)


class TestForceField:
    def test_rejects_unknown_backend(self, lj):
        # One pair search: there is no backend left to choose.
        with pytest.raises(TypeError):
            ForceField(lj, backend="kdtree")

    def test_rejects_negative_attraction(self, lj):
        with pytest.raises(ConfigurationError):
            ForceField(lj, attraction=-1.0)

    def test_rejects_bad_attractors(self, lj):
        with pytest.raises(ConfigurationError):
            ForceField(lj, attraction=0.1, attractors=np.zeros((0, 3)))
        with pytest.raises(ConfigurationError):
            ForceField(lj, attraction=0.1, attractors=np.zeros((4, 2)))

    def test_backends_produce_identical_forces(self, lj, rng):
        # The cached list against the paper's linked-cell search.
        box = 10.5
        pos = rng.uniform(0, box, (150, 3))
        got = ForceField(lj).compute(ParticleSystem(pos.copy(), box_length=box))
        pairs = canonical_pairs(pairs_celllist(pos, CellList(box, 4), lj.cutoff))
        want = forces_from_pairs(pos, pairs, box, lj, len(pos))
        assert np.array_equal(got.forces, want.forces)
        assert got.potential_energy == want.potential_energy
        assert got.n_pairs == want.n_pairs

    def test_compute_writes_system_forces(self, lj, rng):
        box = 10.0
        system = ParticleSystem(rng.uniform(0, box, (40, 3)), box_length=box)
        result = ForceField(lj).compute(system)
        assert np.array_equal(system.forces, result.forces)

    def test_central_attraction_pulls_to_center(self, lj):
        box = 20.0
        pos = np.array([[2.0, 10.0, 10.0]])
        system = ParticleSystem(pos, box_length=box)
        result = ForceField(lj, attraction=0.5).compute(system)
        # Center is at x=10; the particle at x=2 is pulled in +x.
        assert result.forces[0, 0] == pytest.approx(0.5 * 8.0)
        assert result.potential_energy == pytest.approx(0.5 * 0.5 * 64.0)

    def test_multi_attractor_uses_nearest_site(self, lj):
        box = 20.0
        sites = np.array([[5.0, 5.0, 5.0], [15.0, 15.0, 15.0]])
        pos = np.array([[6.0, 5.0, 5.0]])
        system = ParticleSystem(pos, box_length=box)
        result = ForceField(lj, attraction=1.0, attractors=sites).compute(system)
        # Nearest site is the first one, 1 unit in -x.
        assert result.forces[0, 0] == pytest.approx(-1.0)

    def test_attraction_respects_periodicity(self, lj):
        box = 20.0
        sites = np.array([[19.0, 10.0, 10.0]])
        pos = np.array([[1.0, 10.0, 10.0]])  # 2 away through the boundary
        system = ParticleSystem(pos, box_length=box)
        result = ForceField(lj, attraction=1.0, attractors=sites).compute(system)
        assert result.forces[0, 0] == pytest.approx(-2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(3)
