"""Exact decomposed force computation: the parallel-correctness test."""

import numpy as np
import pytest

from repro.core.ddm import decomposed_force_pass
from repro.decomp.assignment import CellAssignment
from repro.errors import DecompositionError
from repro.md.celllist import CellList
from repro.md.forces import ForceField
from repro.md.potential import LennardJones
from repro.md.system import ParticleSystem


@pytest.fixture
def setup(rng):
    nc, n_pes = 6, 9
    box = nc * 2.62
    positions = rng.uniform(0, box, (500, 3))
    system = ParticleSystem(positions, box_length=box)
    cell_list = CellList(box, nc)
    assignment = CellAssignment(nc, n_pes)
    potential = LennardJones()
    return system, cell_list, assignment, potential


class TestDecomposedForcePass:
    def test_forces_match_global_kernel(self, setup):
        """THE correctness property of DDM: per-PE computation with ghost
        cells, merged, equals the single-process force evaluation."""
        system, cell_list, assignment, potential = setup
        global_result = ForceField(potential).compute(system.copy())
        decomposed = decomposed_force_pass(
            system, cell_list, assignment.cell_owner_map(), 9, potential
        )
        assert np.allclose(decomposed.forces, global_result.forces, atol=1e-9)

    def test_energy_matches_global_kernel(self, setup):
        system, cell_list, assignment, potential = setup
        global_result = ForceField(potential).compute(system.copy())
        decomposed = decomposed_force_pass(
            system, cell_list, assignment.cell_owner_map(), 9, potential
        )
        assert decomposed.potential_energy == pytest.approx(
            global_result.potential_energy, rel=1e-9
        )

    def test_still_correct_after_cell_migration(self, setup):
        system, cell_list, assignment, potential = setup
        for pe in range(9):
            movable = assignment.movable_at_home(pe)
            if len(movable):
                assignment.transfer(
                    int(movable[0]), sorted(assignment.lower_neighbors(pe))[0]
                )
        global_result = ForceField(potential).compute(system.copy())
        decomposed = decomposed_force_pass(
            system, cell_list, assignment.cell_owner_map(), 9, potential
        )
        assert np.allclose(decomposed.forces, global_result.forces, atol=1e-9)
        assert decomposed.potential_energy == pytest.approx(
            global_result.potential_energy, rel=1e-9
        )

    def test_per_pe_times_positive(self, setup):
        system, cell_list, assignment, potential = setup
        decomposed = decomposed_force_pass(
            system, cell_list, assignment.cell_owner_map(), 9, potential
        )
        assert np.all(decomposed.per_pe_seconds > 0)

    def test_pair_counts_cover_all_pairs(self, setup):
        # Each pair is evaluated once by each endpoint owner (twice if the
        # endpoints have different owners, once... actually exactly: pairs
        # with both endpoints on one PE are counted once; split pairs are
        # counted by both owners.
        system, cell_list, assignment, potential = setup
        ff = ForceField(potential)
        n_global = ff.compute(system.copy()).n_pairs
        decomposed = decomposed_force_pass(
            system, cell_list, assignment.cell_owner_map(), 9, potential
        )
        total = decomposed.per_pe_pairs.sum()
        assert n_global <= total <= 2 * n_global

    def test_rejects_bad_owner_map(self, setup):
        system, cell_list, _, potential = setup
        with pytest.raises(DecompositionError):
            decomposed_force_pass(system, cell_list, np.zeros(5, dtype=int), 9, potential)

    def test_empty_pe_contributes_nothing(self, rng):
        # All particles inside one PE's region: other PEs do nearly no work.
        nc = 6
        box = nc * 2.62
        positions = rng.uniform(0, box / 3, (100, 3))  # inside PE(0, 0)'s block
        system = ParticleSystem(positions, box_length=box)
        cell_list = CellList(box, nc)
        assignment = CellAssignment(nc, 9)
        result = decomposed_force_pass(
            system, cell_list, assignment.cell_owner_map(), 9, LennardJones()
        )
        # Only PE 0 (and neighbours via ghosts of split pairs) hold pairs.
        assert result.per_pe_pairs[0] > 0
        assert result.per_pe_pairs.sum() >= result.per_pe_pairs[0]


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestCandidateDrivenPass:
    """The decomposed pass fed a shared (Verlet-style) candidate list."""

    def test_matches_global_kernel_bitwise_on_forces(self, setup):
        from repro.md.neighbors import VerletList

        system, cell_list, assignment, potential = setup
        owner = assignment.cell_owner_map()
        verlet = VerletList(system.box_length, potential.cutoff, 0.4)
        candidates = verlet.candidates(system.positions)
        global_result = ForceField(potential).compute(system.copy())
        cached = decomposed_force_pass(
            system, cell_list, owner, 9, potential, candidate_pairs=candidates
        )
        searched = decomposed_force_pass(system, cell_list, owner, 9, potential)
        assert np.array_equal(cached.forces, global_result.forces)
        assert np.array_equal(searched.forces, global_result.forces)
        assert cached.potential_energy == pytest.approx(
            global_result.potential_energy, rel=1e-12
        )
        assert int(cached.per_pe_pairs.sum()) == int(searched.per_pe_pairs.sum())
        assert (cached.n_candidates, cached.list_rebuilt) == (len(candidates), False)
        assert searched.list_rebuilt and searched.n_candidates == global_result.n_pairs

    def test_matches_global_kernel(self, setup):
        from repro.md.neighbors import pairs_kdtree

        system, cell_list, assignment, potential = setup
        owner = assignment.cell_owner_map()
        pairs = pairs_kdtree(system.positions, system.box_length, potential.cutoff)
        global_result = ForceField(potential).compute(system.copy())
        cached = decomposed_force_pass(
            system, cell_list, owner, 9, potential, candidate_pairs=pairs
        )
        assert np.allclose(cached.forces, global_result.forces, atol=1e-9)
        assert cached.potential_energy == pytest.approx(
            global_result.potential_energy, rel=1e-9
        )

    def test_empty_candidates(self, setup):
        system, cell_list, assignment, potential = setup
        owner = assignment.cell_owner_map()
        result = decomposed_force_pass(
            system, cell_list, owner, 9, potential,
            candidate_pairs=np.empty((0, 2), dtype=np.int64),
        )
        assert np.allclose(result.forces, 0.0)
        assert result.per_pe_pairs.sum() == 0
