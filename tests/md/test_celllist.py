"""Linked cell lists."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.md.celllist import FULL_STENCIL, HALF_STENCIL, CellList


class TestStencils:
    def test_half_stencil_has_13_offsets(self):
        assert len(HALF_STENCIL) == 13

    def test_full_stencil_has_27_offsets(self):
        assert len(FULL_STENCIL) == 27

    def test_half_stencil_covers_each_direction_once(self):
        seen = set(HALF_STENCIL)
        for offset in seen:
            negated = tuple(-x for x in offset)
            assert negated not in seen

    def test_half_plus_negated_plus_zero_is_full(self):
        combined = set(HALF_STENCIL)
        combined |= {tuple(-x for x in o) for o in HALF_STENCIL}
        combined.add((0, 0, 0))
        assert combined == set(FULL_STENCIL)


class TestIndexing:
    def test_rejects_bad_arguments(self):
        with pytest.raises(GeometryError):
            CellList(0.0, 3)
        with pytest.raises(GeometryError):
            CellList(10.0, 0)

    def test_flatten_unflatten_roundtrip(self):
        cl = CellList(10.0, 4)
        flat = np.arange(cl.n_cells)
        assert np.array_equal(cl.flatten(cl.unflatten(flat)), flat)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_flatten_is_a_bijection(self, nc):
        cl = CellList(float(nc), nc)
        coords = cl.unflatten(np.arange(nc**3))
        flats = cl.flatten(coords)
        assert len(np.unique(flats)) == nc**3

    def test_cell_coords_basic(self):
        cl = CellList(10.0, 5)  # cell size 2
        coords = cl.cell_coords(np.array([[0.0, 3.9, 9.99]]))
        assert coords.tolist() == [[0, 1, 4]]

    def test_position_at_box_edge_clips_to_last_cell(self):
        cl = CellList(10.0, 5)
        coords = cl.cell_coords(np.array([[10.0 - 1e-13, 0.0, 0.0]]))
        assert coords[0, 0] == 4

    def test_neighbor_ids_shape_and_wraparound(self):
        cl = CellList(9.0, 3)
        nbr = cl.neighbor_ids((1, 0, 0))
        assert nbr.shape == (27,)
        # Cell (2, 0, 0) wraps to (0, 0, 0).
        assert nbr[cl.flatten(np.array([2, 0, 0]))] == 0


class TestOccupancy:
    def test_counts_sum_to_n(self, gas_positions):
        pos, box = gas_positions
        cl = CellList(box, 4)
        assert cl.counts(pos).sum() == len(pos)

    def test_counts_grid_shape(self, gas_positions):
        pos, box = gas_positions
        cl = CellList(box, 4)
        assert cl.counts(pos).shape == (4, 4, 4)

    def test_empty_positions(self):
        cl = CellList(5.0, 3)
        assert cl.counts(np.empty((0, 3))).sum() == 0

    def test_sorted_particles_partition(self, gas_positions):
        pos, box = gas_positions
        cl = CellList(box, 4)
        order, starts = cl.sorted_particles(pos)
        assert starts[0] == 0
        assert starts[-1] == len(pos)
        flat = cl.assign(pos)
        for c in range(cl.n_cells):
            members = order[starts[c]: starts[c + 1]]
            assert np.all(flat[members] == c)


class TestNeighborCountSum:
    def test_uniform_counts(self):
        cl = CellList(12.0, 4)
        counts = np.full((4, 4, 4), 3)
        total = cl.neighbor_count_sum(counts)
        assert np.all(total == 27 * 3)

    def test_single_occupied_cell(self):
        cl = CellList(12.0, 4)
        counts = np.zeros((4, 4, 4), dtype=int)
        counts[1, 2, 3] = 5
        total = cl.neighbor_count_sum(counts)
        # The occupied cell contributes 5 to each of its 27 stencil members.
        assert total.sum() == 27 * 5
        assert total[1, 2, 3] == 5

    def test_conserves_weighted_total(self, rng):
        cl = CellList(12.0, 4)
        counts = rng.integers(0, 10, size=(4, 4, 4))
        total = cl.neighbor_count_sum(counts)
        assert total.sum() == 27 * counts.sum()

    def test_rejects_wrong_shape(self):
        cl = CellList(12.0, 4)
        with pytest.raises(GeometryError):
            cl.neighbor_count_sum(np.zeros((3, 3, 3)))

    @pytest.mark.parametrize("nc", [3, 4, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_explicit_27_offset_sum(self, nc, seed):
        # At nc=3 the periodic stencil wraps onto the whole grid, each cell once.
        counts = np.random.default_rng([seed, nc]).integers(0, 50, size=(nc, nc, nc))
        expected = np.zeros_like(counts)
        for offset in FULL_STENCIL:
            expected += np.roll(counts, shift=offset, axis=(0, 1, 2))
        total = CellList(float(nc), nc).neighbor_count_sum(counts)
        assert total.dtype == counts.dtype
        assert np.array_equal(total, expected)


class TestBoxReduce:
    """The one 3x3x3 box stencil behind the cell work, the halo and the
    contact check, against the explicit 27-offset ``np.roll`` reduction."""

    @staticmethod
    def rolled(grid, op):
        out = None
        for offset in FULL_STENCIL:
            shifted = np.roll(grid, shift=offset, axis=(0, 1, 2))
            out = shifted if out is None else op(out, shifted)
        return out

    @pytest.mark.parametrize("nc", [3, 4, 5, 7])
    @pytest.mark.parametrize(
        "op, dtype, tail",
        [
            (np.add, np.int64, ()),
            (np.add, np.int32, ()),
            (np.add, np.int64, (2,)),
            (np.bitwise_or, np.uint64, (1,)),
            (np.bitwise_or, np.uint64, (3,)),
            (np.bitwise_or, np.bool_, ()),
        ],
    )
    def test_matches_27_offset_roll_reduction(self, nc, op, dtype, tail):
        # At nc=3 the periodic stencil wraps onto the whole grid.
        rng = np.random.default_rng([nc, len(tail)])
        shape = (nc, nc, nc) + tail
        if dtype is np.bool_:
            grid = rng.random(shape) < 0.1
        elif dtype is np.uint64:  # one set bit per element, as the halo packs owners
            grid = np.uint64(1) << rng.integers(0, 64, shape).astype(np.uint64)
        else:
            grid = rng.integers(0, 50, shape).astype(dtype)
        reduced = CellList(float(nc), nc).box_reduce(grid, op)
        assert reduced.dtype == grid.dtype
        assert reduced.shape == grid.shape
        assert np.array_equal(reduced, self.rolled(grid, op))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestCellSort:
    def test_matches_sorted_particles(self, gas_positions):
        pos, box = gas_positions
        cl = CellList(box, 4)
        sort = cl.cell_sort(pos)
        order, starts = cl.sorted_particles(pos, sort=sort)
        assert order is sort.order and starts is sort.starts
        order2, starts2 = cl.sorted_particles(pos)
        assert np.array_equal(order, order2)
        assert np.array_equal(starts, starts2)

    def test_counts_consistent_with_grid(self, gas_positions):
        pos, box = gas_positions
        cl = CellList(box, 4)
        sort = cl.cell_sort(pos)
        assert np.array_equal(sort.counts.reshape((4, 4, 4)), cl.counts(pos))

    def test_csr_partition(self, gas_positions):
        pos, box = gas_positions
        cl = CellList(box, 4)
        sort = cl.cell_sort(pos)
        for c in range(cl.n_cells):
            members = sort.order[sort.starts[c]: sort.starts[c + 1]]
            assert np.all(sort.flat[members] == c)


class TestStencilCache:
    def test_neighbor_ids_cached_per_offset(self):
        cl = CellList(9.0, 3)
        first = cl.neighbor_ids((1, 0, 0))
        second = cl.neighbor_ids((1, 0, 0))
        assert first is second  # computed once, reused

    def test_cached_tables_are_read_only(self):
        cl = CellList(9.0, 3)
        nbr = cl.neighbor_ids((0, 1, 0))
        with pytest.raises(ValueError):
            nbr[0] = 99

    def test_distinct_offsets_distinct_tables(self):
        cl = CellList(9.0, 3)
        assert not np.array_equal(cl.neighbor_ids((1, 0, 0)), cl.neighbor_ids((0, 0, 1)))
