"""Exact decomposed force computation: the parallel-correctness test.

The decomposed pass runs through the reference execution engine,
:class:`~repro.engine.SequentialEngine`: every PE's slice is cut from one
shared canonical neighbour list in rank order, and the merged forces must
equal the global kernel's bit for bit.
"""

import numpy as np
import pytest

from repro.decomp.assignment import CellAssignment
from repro.errors import DecompositionError
from repro.md.celllist import CellList
from repro.md.forces import ForceField
from repro.md.kernels import forces_from_pairs
from repro.md.neighbors import VerletList, canonical_pairs, pairs_kdtree
from repro.md.potential import LennardJones
from repro.md.system import ParticleSystem
from tests.helpers import sequential_passes

NC, N_PES = 6, 9


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def setup(rng):
    box = NC * 2.62
    positions = rng.uniform(0, box, (500, 3))
    system = ParticleSystem(positions, box_length=box)
    assignment = CellAssignment(NC, N_PES)
    potential = LennardJones()
    return system, assignment, potential


def global_kernel(system, potential):
    """The single-process reference: the exact cut-off list, canonical order."""
    pairs = canonical_pairs(
        pairs_kdtree(system.positions, system.box_length, potential.cutoff)
    )
    return forces_from_pairs(system.positions, pairs, system.box_length, potential)


def decomposed(system, assignment, potential, passes=1):
    results = sequential_passes(
        system.positions, system.box_length, NC, assignment.cell_owner_map(),
        potential, n_pes=N_PES, passes=passes,
    )
    return results if passes > 1 else results[0]


class TestDecomposedForcePass:
    def test_forces_match_global_kernel(self, setup):
        """THE correctness property of DDM: per-PE computation with ghost
        cells, merged, equals the single-process force evaluation."""
        system, assignment, potential = setup
        result = decomposed(system, assignment, potential)
        assert np.array_equal(result.forces, global_kernel(system, potential).forces)

    def test_energy_matches_global_kernel(self, setup):
        system, assignment, potential = setup
        result = decomposed(system, assignment, potential)
        assert result.potential_energy == pytest.approx(
            global_kernel(system, potential).potential_energy, rel=1e-9
        )

    def test_still_correct_after_cell_migration(self, setup):
        system, assignment, potential = setup
        for pe in range(N_PES):
            movable = assignment.movable_at_home(pe)
            if len(movable):
                assignment.transfer(
                    int(movable[0]), sorted(assignment.lower_neighbors(pe))[0]
                )
        want = global_kernel(system, potential)
        result = decomposed(system, assignment, potential)
        assert np.array_equal(result.forces, want.forces)
        assert result.potential_energy == pytest.approx(want.potential_energy, rel=1e-9)

    def test_per_pe_times_positive(self, setup):
        system, assignment, potential = setup
        result = decomposed(system, assignment, potential)
        assert np.all(result.per_pe_seconds > 0)

    def test_pair_counts_cover_all_pairs(self, setup):
        # Pairs with both endpoints on one PE are counted once; split pairs
        # are counted by both owners.
        system, assignment, potential = setup
        n_global = global_kernel(system, potential).n_pairs
        total = decomposed(system, assignment, potential).per_pe_pairs.sum()
        assert n_global <= total <= 2 * n_global

    def test_rejects_bad_owner_map(self, setup):
        system, _, potential = setup
        with pytest.raises(DecompositionError):
            sequential_passes(
                system.positions, system.box_length, NC,
                np.zeros(5, dtype=np.int64), potential,
            )

    def test_empty_pe_contributes_nothing(self, rng):
        # All particles inside one PE's region: other PEs do nearly no work.
        box = NC * 2.62
        positions = rng.uniform(0, box / 3, (100, 3))  # inside PE(0, 0)'s block
        system = ParticleSystem(positions, box_length=box)
        result = decomposed(system, CellAssignment(NC, N_PES), LennardJones())
        # Only PE 0 (and neighbours via ghosts of split pairs) hold pairs.
        assert result.per_pe_pairs[0] > 0
        assert result.per_pe_pairs.sum() >= result.per_pe_pairs[0]
        owner = CellAssignment(NC, N_PES).cell_owner_map()
        owned = np.bincount(owner[CellList(box, NC).assign(positions)], minlength=N_PES)
        assert (owned == 0).any()
        assert np.all(result.per_pe_pairs[owned == 0] == 0)


class TestCandidateDrivenPass:
    """The decomposed pass cut from the engine's shared, skinned list."""

    def test_matches_global_kernel_bitwise_on_forces(self, setup):
        system, assignment, potential = setup
        want = global_kernel(system, potential)
        built, reused = decomposed(system, assignment, potential, passes=2)
        candidates = VerletList(system.box_length, potential.cutoff, 0.4).candidates(
            system.positions
        )
        assert np.array_equal(built.forces, want.forces)
        assert np.array_equal(reused.forces, want.forces)
        assert built.potential_energy == pytest.approx(want.potential_energy, rel=1e-12)
        assert int(built.per_pe_pairs.sum()) == int(reused.per_pe_pairs.sum())
        assert (built.n_candidates, built.list_rebuilt) == (len(candidates), True)
        assert (reused.n_candidates, reused.list_rebuilt) == (len(candidates), False)
        assert built.n_candidates > want.n_pairs  # the skin rows were filtered

    def test_matches_global_kernel(self, setup):
        # The classic path's force field keeps its own skinned list.
        system, assignment, potential = setup
        want = ForceField(potential).compute(system.copy())
        result = decomposed(system, assignment, potential)
        assert np.array_equal(result.forces, want.forces)
        assert result.potential_energy == pytest.approx(want.potential_energy, rel=1e-9)

    def test_empty_candidates(self):
        # A lattice wider than cut-off + skin: the shared list is empty.
        spacing = NC * 2.62 / 4
        positions = np.indices((4, 4, 4)).reshape(3, -1).T * spacing + 0.1
        system = ParticleSystem(positions.astype(np.float64), box_length=NC * 2.62)
        result = decomposed(system, CellAssignment(NC, N_PES), LennardJones())
        assert result.n_candidates == 0
        assert np.allclose(result.forces, 0.0)
        assert result.per_pe_pairs.sum() == 0
