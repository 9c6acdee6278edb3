"""The redistribution protocol's case analysis, one PE at a time.

The case analysis is exercised through the scalar per-PE rule of
``tests/dlb/rank_rule.py``, the oracle the array round is held to in
``test_array_round.py``.
"""

import numpy as np
import pytest

from repro.decomp.assignment import CellAssignment
from repro.dlb.protocol import (
    CASE1_OFFSETS,
    CASE2_OFFSETS,
    CASE3_OFFSETS,
    Case,
    classify_case,
)
from repro.errors import ProtocolError
from repro.parallel.topology import Torus2D
from tests.dlb.rank_rule import decide_move


@pytest.fixture
def assignment():
    return CellAssignment(cells_per_side=9, n_pes=9)


@pytest.fixture
def topology():
    return Torus2D(3)


class TestClassifyCase:
    def test_all_nine_offsets_covered(self):
        cases = {}
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                cases[(di, dj)] = classify_case((di, dj))
        assert cases[(0, 0)] is Case.SELF
        for off in CASE1_OFFSETS:
            assert cases[off] is Case.SEND_OWN
        for off in CASE2_OFFSETS:
            assert cases[off] is Case.NOTHING
        for off in CASE3_OFFSETS:
            assert cases[off] is Case.RETURN_BORROWED

    def test_case_partition_is_exhaustive(self):
        assert len(CASE1_OFFSETS) + len(CASE2_OFFSETS) + len(CASE3_OFFSETS) == 8

    def test_rejects_non_neighbour_offset(self):
        with pytest.raises(ProtocolError):
            classify_case((2, 0))


class TestCase1SendOwn:
    def test_sends_own_movable_cell(self, assignment, topology):
        pe = 4
        fastest = assignment.pe_flat(0, 1)  # offset (-1, 0)
        move = decide_move(assignment, topology, pe, fastest)
        assert move is not None
        assert move.kind is Case.SEND_OWN
        assert move.src == pe and move.dst == fastest
        assert assignment.home[move.cell] == pe
        assert not assignment.permanent[move.cell]

    def test_prefers_cell_adjacent_to_receiver(self, assignment, topology):
        pe = 4
        m, nc = assignment.m, assignment.cells_per_side
        up = decide_move(assignment, topology, pe, assignment.pe_flat(0, 1))
        cx = up.cell // nc // nc
        assert cx % m == 0  # lowest local u for the (-1, 0) receiver
        left = decide_move(assignment, topology, pe, assignment.pe_flat(1, 0))
        cy = (left.cell // nc) % nc
        assert cy % m == 0  # lowest local v for the (0, -1) receiver

    def test_returns_none_when_no_movable_left(self, assignment, topology):
        pe = 4
        receiver = assignment.pe_flat(0, 1)
        for cell in list(assignment.movable_at_home(pe)):
            assignment.transfer(int(cell), receiver)
        assert decide_move(assignment, topology, pe, receiver) is None

    def test_sent_cell_is_not_picked_again(self, assignment, topology):
        pe = 4
        receiver = assignment.pe_flat(0, 1)
        first = decide_move(assignment, topology, pe, receiver)
        assignment.transfer(first.cell, receiver)
        second = decide_move(assignment, topology, pe, receiver)
        assert second.cell != first.cell


class TestCase2Nothing:
    def test_blocked_diagonals_yield_none(self, assignment, topology):
        pe = 4
        for di, dj in CASE2_OFFSETS:
            i, j = assignment.pe_coords(pe)
            fastest = assignment.pe_flat(i + di, j + dj)
            assert decide_move(assignment, topology, pe, fastest) is None


class TestCase3Return:
    def test_returns_borrowed_cell(self, assignment, topology):
        lender = assignment.pe_flat(1, 2)  # PE at offset (0, +1) from PE 4
        receiver = 4
        cell = int(assignment.movable_at_home(lender)[0])
        assignment.transfer(cell, receiver)
        move = decide_move(assignment, topology, receiver, lender)
        assert move is not None
        assert move.kind is Case.RETURN_BORROWED
        assert move.cell == cell
        assert move.dst == lender

    def test_nothing_to_return_yields_none(self, assignment, topology):
        lender = assignment.pe_flat(1, 2)
        assert decide_move(assignment, topology, 4, lender) is None

    def test_only_returns_cells_of_that_lender(self, assignment, topology):
        lender_a = assignment.pe_flat(1, 2)  # offset (0, +1)
        lender_b = assignment.pe_flat(2, 1)  # offset (+1, 0)
        cell_a = int(assignment.movable_at_home(lender_a)[0])
        assignment.transfer(cell_a, 4)
        # Asking to return toward lender_b yields nothing.
        assert decide_move(assignment, topology, 4, lender_b) is None


class TestSelf:
    def test_self_fastest_yields_none(self, assignment, topology):
        assert decide_move(assignment, topology, 4, 4) is None


class TestEdgeCases:
    """Degenerate protocol inputs: bad offsets, empty ledgers, no movables."""

    @pytest.mark.parametrize("offset", [(2, 0), (0, -2), (3, 3), (-2, 1), (10, -10)])
    def test_classify_rejects_every_non_neighbour_offset(self, offset):
        with pytest.raises(ProtocolError, match="not an 8-neighbour"):
            classify_case(offset)

    def test_fully_exhausted_pe_cannot_lend_to_any_lower_neighbour(
        self, assignment, topology
    ):
        # Lend away every movable cell PE 4 has; only permanent cells remain,
        # so no lower neighbour can receive anything more.
        pe = 4
        receivers = sorted(np.flatnonzero(assignment.lends_to[pe]))
        for i, cell in enumerate(list(assignment.movable_at_home(pe))):
            assignment.transfer(int(cell), receivers[i % len(receivers)])
        assert assignment.movable_at_home(pe).size == 0
        for receiver in receivers:
            assert decide_move(assignment, topology, pe, receiver) is None

    def test_ledger_empties_after_full_round_trip(self, assignment, topology):
        # Case 1 lends, Case 3 returns; afterwards the borrowed ledger is
        # empty again and a further Case 3 request finds nothing.
        lender = assignment.pe_flat(1, 2)  # offset (0, +1) from PE 4
        borrower = 4
        lent = decide_move(assignment, topology, lender, borrower)
        assert lent is not None and lent.kind is Case.SEND_OWN
        assignment.transfer(lent.cell, borrower)
        back = decide_move(assignment, topology, borrower, lender)
        assert back is not None and back.kind is Case.RETURN_BORROWED
        assert back.cell == lent.cell
        assignment.transfer(back.cell, lender)
        assert np.array_equal(assignment.holder, assignment.home)
        assert decide_move(assignment, topology, borrower, lender) is None

    def test_permanent_cell_transfer_is_rejected(self, assignment):
        permanent_cell = int(np.flatnonzero(assignment.permanent)[0])
        home = int(assignment.home[permanent_cell])
        lower = int(np.flatnonzero(assignment.lends_to[home])[0])
        with pytest.raises(ProtocolError):
            assignment.transfer(permanent_cell, lower)
