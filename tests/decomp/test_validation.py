"""The 8-neighbour property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp.assignment import CellAssignment
from repro.decomp.validation import (
    check_eight_neighbor_property,
    contact_pairs,
    torus_neighbors,
)
from repro.errors import DecompositionError


class TestTorusNeighbors:
    def test_eight_on_large_torus(self):
        assert len(torus_neighbors(0, 4)) == 8

    def test_wraps(self):
        nbrs = torus_neighbors(0, 3)
        assert 8 in nbrs  # PE(2, 2) is diagonal to PE(0, 0) periodically

    def test_excludes_self(self):
        assert 0 not in torus_neighbors(0, 3)


class TestContactPairs:
    def test_initial_pillar_contacts_are_torus_neighbors(self):
        assignment = CellAssignment(9, 9)
        pairs = contact_pairs(assignment.holder, 9)
        for a, b in pairs:
            assert b in torus_neighbors(a, 3)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DecompositionError):
            contact_pairs(np.zeros(10, dtype=int), 3)

    def test_uniform_map_has_no_contacts(self):
        assert contact_pairs(np.zeros(27, dtype=np.int64), 3) == set()


class TestEightNeighborProperty:
    def test_holds_initially(self):
        check_eight_neighbor_property(CellAssignment(12, 9))

    def test_holds_after_legal_lending(self):
        assignment = CellAssignment(9, 9)
        for pe in range(9):
            for target in sorted(np.flatnonzero(assignment.lends_to[pe])):
                movable = assignment.movable_at_home(pe)
                if len(movable):
                    assignment.transfer(int(movable[0]), target)
        check_eight_neighbor_property(assignment)

    def test_holds_when_all_movable_lent_to_one_neighbor(self):
        # The extreme of Figure 4: a PE receives every movable cell of a
        # lender; the wall must still separate non-neighbours.
        assignment = CellAssignment(9, 9)
        lender = 4
        receiver = assignment.pe_flat(0, 1)
        for cell in list(assignment.movable_at_home(lender)):
            assignment.transfer(int(cell), receiver)
        check_eight_neighbor_property(assignment)

    def test_detects_violation_from_corrupted_holder(self):
        assignment = CellAssignment(12, 16)  # 4x4 torus: distant PEs exist
        # Hand PE 0 a cell deep inside PE 10's domain (not a neighbour).
        cell = int(np.flatnonzero(assignment.home == 10)[20])
        assignment.holder[cell] = 0
        with pytest.raises(DecompositionError):
            check_eight_neighbor_property(assignment)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_holds_under_random_legal_sequences(self, seed):
        rng = np.random.default_rng(seed)
        assignment = CellAssignment(9, 9)
        for _ in range(80):
            pe = int(rng.integers(9))
            movable = assignment.movable_at_home(pe)
            if len(movable) == 0:
                continue
            target = int(rng.choice(sorted(np.flatnonzero(assignment.lends_to[pe]))))
            assignment.transfer(int(rng.choice(movable)), target)
        check_eight_neighbor_property(assignment)
