"""Cell-to-PE assignment and DLB invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp.assignment import CellAssignment, classify_permanent_columns
from repro.errors import DecompositionError, ProtocolError


@pytest.fixture
def assignment() -> CellAssignment:
    return CellAssignment(cells_per_side=9, n_pes=9)  # m = 3


class TestPermanentClassification:
    @pytest.mark.parametrize("m,pe_side", [(2, 3), (3, 3), (4, 3), (2, 4)])
    def test_counts_match_formula(self, m, pe_side):
        nc = m * pe_side
        mask = classify_permanent_columns(nc, pe_side**2)
        per_domain = mask.sum() / pe_side**2
        assert per_domain == 2 * m - 1

    def test_movable_complement(self):
        mask = classify_permanent_columns(12, 9)  # m = 4
        movable_per_domain = (~mask).sum() / 9
        assert movable_per_domain == (4 - 1) ** 2

    def test_m1_everything_permanent(self):
        mask = classify_permanent_columns(3, 9)  # m = 1
        assert mask.all()

    def test_rejects_non_square_pes(self):
        with pytest.raises(DecompositionError):
            classify_permanent_columns(9, 8)


class TestConstruction:
    def test_initial_holder_is_home(self, assignment):
        assert np.array_equal(assignment.holder, assignment.home)

    def test_permanent_cells_per_domain(self, assignment):
        # 2m-1 = 5 wall columns, each with nc = 9 cells.
        for pe in range(9):
            held = assignment.cells_of(pe)
            assert assignment.permanent[held].sum() == 5 * 9

    def test_movable_at_home_count(self, assignment):
        for pe in range(9):
            assert len(assignment.movable_at_home(pe)) == (3 - 1) ** 2 * 9

    def test_cell_counts_equal_initially(self, assignment):
        assert np.all(assignment.cell_counts_per_pe() == 9**3 // 9)


class TestTransfer:
    def test_lend_to_lower_neighbor(self, assignment):
        pe = 4  # PE(1, 1)
        cell = int(assignment.movable_at_home(pe)[0])
        target = assignment.pe_flat(0, 1)
        assignment.transfer(cell, target)
        assert assignment.holder[cell] == target
        assignment.validate()

    def test_lend_to_diagonal_lower_neighbor(self, assignment):
        pe = 4
        cell = int(assignment.movable_at_home(pe)[0])
        target = assignment.pe_flat(0, 0)
        assignment.transfer(cell, target)
        assignment.validate()

    def test_return_home(self, assignment):
        pe = 4
        cell = int(assignment.movable_at_home(pe)[0])
        assignment.transfer(cell, assignment.pe_flat(0, 1))
        assignment.transfer(cell, pe)
        assert assignment.holder[cell] == pe
        assignment.validate()

    def test_rejects_permanent_cell(self, assignment):
        cell = int(np.flatnonzero(assignment.permanent)[0])
        with pytest.raises(ProtocolError):
            assignment.transfer(cell, 0)

    def test_rejects_upper_neighbor(self, assignment):
        pe = 4
        cell = int(assignment.movable_at_home(pe)[0])
        with pytest.raises(ProtocolError):
            assignment.transfer(cell, assignment.pe_flat(2, 1))

    def test_rejects_distant_pe(self):
        assignment = CellAssignment(cells_per_side=16, n_pes=16)
        cell = int(assignment.movable_at_home(5)[0])
        with pytest.raises(ProtocolError):
            assignment.transfer(cell, 15)

    def test_rejects_noop(self, assignment):
        cell = int(assignment.movable_at_home(4)[0])
        with pytest.raises(ProtocolError):
            assignment.transfer(cell, 4)

    def test_rejects_out_of_range(self, assignment):
        with pytest.raises(ProtocolError):
            assignment.transfer(10**6, 0)
        with pytest.raises(ProtocolError):
            assignment.transfer(0, 99)


class TestBorrowing:
    def test_borrowed_by_tracks_lender(self, assignment):
        lender = 4
        receiver = assignment.pe_flat(0, 1)
        cell = int(assignment.movable_at_home(lender)[0])
        assignment.transfer(cell, receiver)
        borrowed = assignment.borrowed_by(receiver, lender)
        assert cell in borrowed

    def test_lent_cell_not_movable_at_home(self, assignment):
        lender = 4
        cell = int(assignment.movable_at_home(lender)[0])
        assignment.transfer(cell, assignment.pe_flat(0, 1))
        assert cell not in assignment.movable_at_home(lender)


class TestReset:
    def test_returns_everything_home(self, assignment):
        for _ in range(5):
            cell = int(assignment.movable_at_home(4)[0])
            assignment.transfer(cell, assignment.pe_flat(0, 1))
        assignment.reset()
        assert np.array_equal(assignment.holder, assignment.home)


class TestValidate:
    def test_detects_corrupted_permanent(self, assignment):
        cell = int(np.flatnonzero(assignment.permanent)[0])
        assignment.holder[cell] = (assignment.home[cell] + 1) % 9
        with pytest.raises(DecompositionError):
            assignment.validate()

    def test_detects_illegal_holder(self, assignment):
        cell = int(assignment.movable_at_home(4)[0])
        assignment.holder[cell] = assignment.pe_flat(2, 1)  # upper neighbour
        with pytest.raises(DecompositionError):
            assignment.validate()


class TestRandomLegalSequences:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_invariants_hold_under_random_legal_moves(self, seed):
        rng = np.random.default_rng(seed)
        assignment = CellAssignment(cells_per_side=9, n_pes=9)
        for _ in range(60):
            pe = int(rng.integers(9))
            action = rng.integers(2)
            if action == 0:
                candidates = assignment.movable_at_home(pe)
                if len(candidates) == 0:
                    continue
                cell = int(rng.choice(candidates))
                target = int(rng.choice(sorted(assignment.lower_neighbors(pe))))
                assignment.transfer(cell, target)
            else:
                away = np.flatnonzero(
                    (assignment.home == pe) & (assignment.holder != pe)
                )
                if len(away) == 0:
                    continue
                assignment.transfer(int(rng.choice(away)), pe)
        assignment.validate()
        # Cell conservation: every cell has exactly one holder.
        assert assignment.cell_counts_per_pe().sum() == 9**3


# -- home-block tables against the full-scan definitions ----------------------

GEOMETRIES = [(9, 9), (12, 9), (12, 16), (10, 25), (18, 36)]


def _lent_and_returned(assignment, rng):
    """Real protocol traffic: legal lends through ``transfer``, some returned."""
    for _ in range(12 * assignment.n_pes):
        pe = int(rng.integers(assignment.n_pes))
        candidates = np.flatnonzero(
            (assignment.home == pe) & (assignment.holder == pe) & ~assignment.permanent
        )
        away = np.flatnonzero((assignment.home == pe) & (assignment.holder != pe))
        if len(away) and rng.random() < 0.3:
            assignment.transfer(int(rng.choice(away)), pe)
        elif len(candidates):
            target = int(rng.choice(sorted(assignment.lower_neighbors(pe))))
            assignment.transfer(int(rng.choice(candidates)), target)


def _unconstrained(assignment, rng):
    """A ``diffusion`` / ``sfc`` style map: any cell, permanent ones too, anywhere."""
    for cell in rng.choice(assignment.n_cells, assignment.n_cells // 3, replace=False):
        target = int(rng.integers(assignment.n_pes))
        if target != assignment.holder[cell]:
            assignment.transfer_any(int(cell), target)
    assert np.any(assignment.holder[assignment.permanent] != assignment.home[assignment.permanent])


def _reference_lend_order(assignment, pe, offset):
    """The parent's per-call sort of ``_pick_own_movable``, byte for byte."""
    candidates = np.flatnonzero(
        (assignment.home == pe) & (assignment.holder == pe) & ~assignment.permanent
    )
    nc = assignment.cells_per_side
    m = assignment.m
    column, z = np.divmod(candidates, nc)
    cx, cy = np.divmod(column, nc)
    u, v = cx % m, cy % m
    di, dj = offset
    distance = np.zeros(len(candidates))
    if di < 0:
        distance = distance + u
    if dj < 0:
        distance = distance + v
    order = np.lexsort((candidates, z, distance))
    return candidates[order]


def assert_queries_equal_full_scan(assignment):
    home, holder, permanent = assignment.home, assignment.holder, assignment.permanent
    for pe in range(assignment.n_pes):
        expected = np.flatnonzero((home == pe) & (holder == pe) & ~permanent)
        got = assignment.movable_at_home(pe)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        for offset in ((-1, -1), (-1, 0), (0, -1)):
            lendable = assignment.lendable(pe, offset)
            assert lendable.dtype == expected.dtype
            assert np.array_equal(lendable, _reference_lend_order(assignment, pe, offset))
        for lender in range(assignment.n_pes):
            expected = np.flatnonzero((home == lender) & (holder == pe))
            got = assignment.borrowed_by(pe, lender)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def _descending_home_blocks(assignment):
    assignment._home_cells = assignment._home_cells[:, ::-1]


def _wall_cell_in_movable_block(assignment):
    assignment._home_movable = assignment._home_movable.copy()
    assignment._home_movable[:, 0] = assignment._home_cells[:, -1]


def _lend_order_without_depth(assignment):
    for offset, table in assignment._lend_order.items():
        assignment._lend_order[offset] = np.sort(table, axis=1)


class TestHomeBlockQueriesAgainstFullScan:
    @pytest.mark.parametrize("nc,n_pes", GEOMETRIES)
    @pytest.mark.parametrize("evolve", [None, _lent_and_returned, _unconstrained])
    def test_queries_equal_the_full_scan_definitions(self, nc, n_pes, evolve):
        assignment = CellAssignment(nc, n_pes)
        if evolve is not None:
            evolve(assignment, np.random.default_rng(nc * n_pes))
            assert np.any(assignment.holder != assignment.home)
        assert_queries_equal_full_scan(assignment)

    @pytest.mark.parametrize(
        "seeded_bug",
        [_descending_home_blocks, _wall_cell_in_movable_block, _lend_order_without_depth],
    )
    def test_a_wrong_table_is_caught(self, seeded_bug):
        assignment = CellAssignment(12, 16)
        _lent_and_returned(assignment, np.random.default_rng(0))
        assert_queries_equal_full_scan(assignment)
        seeded_bug(assignment)
        with pytest.raises(AssertionError):
            assert_queries_equal_full_scan(assignment)

    def test_queries_follow_writes_to_holder(self):
        """Nothing derived from ``holder`` is kept: restore-style writes show."""
        assignment = CellAssignment(9, 9)
        cell = int(assignment.movable_at_home(4)[0])
        assignment.holder[cell] = 0
        assert cell not in assignment.movable_at_home(4)
        assert cell in assignment.borrowed_by(0, 4)
        assignment.reset()
        assert cell in assignment.movable_at_home(4)
        assert assignment.borrowed_by(0, 4).size == 0
