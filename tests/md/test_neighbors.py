"""Pair finding: backend equivalence and edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.md.celllist import CellList
from repro.md.neighbors import (
    candidate_pairs_celllist,
    canonical_pairs,
    pairs_celllist,
    pairs_kdtree,
)
from repro.md.pbc import minimum_image


def brute_force_pairs(positions: np.ndarray, box: float, cutoff: float) -> np.ndarray:
    """O(N^2) reference implementation."""
    n = len(positions)
    out = []
    for i in range(n):
        delta = minimum_image(positions[i] - positions[i + 1:], box)
        r_sq = np.sum(delta * delta, axis=1)
        for off in np.flatnonzero(r_sq < cutoff * cutoff):
            out.append((i, i + 1 + off))
    return canonical_pairs(np.array(out, dtype=np.int64).reshape(-1, 2))


class TestKDTreeBackend:
    def test_empty_input(self):
        assert pairs_kdtree(np.empty((0, 3)), 10.0, 2.5).shape == (0, 2)

    def test_two_close_particles(self):
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
        pairs = pairs_kdtree(pos, 10.0, 2.5)
        assert len(pairs) == 1

    def test_periodic_pair_found(self):
        pos = np.array([[0.2, 5.0, 5.0], [9.8, 5.0, 5.0]])
        pairs = pairs_kdtree(pos, 10.0, 2.5)
        assert len(pairs) == 1

    def test_pair_beyond_cutoff_excluded(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
        assert len(pairs_kdtree(pos, 10.0, 2.5)) == 0

    def test_pair_exactly_at_cutoff_excluded(self):
        pos = np.array([[1.0, 1.0, 1.0], [3.5, 1.0, 1.0]])
        assert len(pairs_kdtree(pos, 10.0, 2.5)) == 0

    def test_rejects_cutoff_larger_than_half_box(self):
        with pytest.raises(GeometryError):
            pairs_kdtree(np.zeros((1, 3)), 4.0, 2.5)

    def test_rejects_non_positive_cutoff(self):
        with pytest.raises(GeometryError):
            pairs_kdtree(np.zeros((1, 3)), 10.0, 0.0)

    def test_matches_brute_force(self, rng):
        pos = rng.uniform(0, 8.0, (120, 3))
        got = canonical_pairs(pairs_kdtree(pos, 8.0, 2.5))
        want = brute_force_pairs(pos, 8.0, 2.5)
        assert np.array_equal(got, want)


class TestCellListBackend:
    def test_rejects_small_grids(self):
        cl = CellList(5.0, 2)
        with pytest.raises(GeometryError):
            pairs_celllist(np.zeros((2, 3)), cl, 2.0)

    def test_rejects_cutoff_beyond_cell_size(self):
        cl = CellList(9.0, 4)  # cell size 2.25 < 2.5
        with pytest.raises(GeometryError):
            pairs_celllist(np.zeros((2, 3)), cl, 2.5)

    def test_empty_input(self):
        cl = CellList(9.0, 3)
        assert pairs_celllist(np.empty((0, 3)), cl, 2.5).shape == (0, 2)

    def test_matches_brute_force(self, rng):
        box = 9.0
        pos = rng.uniform(0, box, (150, 3))
        cl = CellList(box, 3)
        got = canonical_pairs(pairs_celllist(pos, cl, 2.5))
        want = brute_force_pairs(pos, box, 2.5)
        assert np.array_equal(got, want)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_backends_agree_on_random_gases(self, seed, n):
        rng = np.random.default_rng(seed)
        box = 10.5
        pos = rng.uniform(0, box, (n, 3))
        cl = CellList(box, 4)  # cell size 2.625 >= 2.5
        a = canonical_pairs(pairs_kdtree(pos, box, 2.5))
        b = canonical_pairs(pairs_celllist(pos, cl, 2.5))
        assert np.array_equal(a, b)

    def test_backends_agree_on_clustered_gas(self, rng):
        box = 10.5
        cluster = rng.normal(box / 2, 0.8, (100, 3))
        pos = np.mod(cluster, box)
        cl = CellList(box, 4)
        a = canonical_pairs(pairs_kdtree(pos, box, 2.5))
        b = canonical_pairs(pairs_celllist(pos, cl, 2.5))
        assert np.array_equal(a, b)


class TestCandidatePairs:
    def test_candidates_superset_of_pairs(self, rng):
        box = 9.0
        pos = rng.uniform(0, box, (80, 3))
        cl = CellList(box, 3)
        candidates = {tuple(sorted(p)) for p in candidate_pairs_celllist(pos, cl)}
        final = {tuple(p) for p in canonical_pairs(pairs_celllist(pos, cl, 2.5))}
        assert final <= candidates

    def test_no_self_pairs(self, rng):
        box = 9.0
        pos = rng.uniform(0, box, (60, 3))
        cl = CellList(box, 3)
        cands = candidate_pairs_celllist(pos, cl)
        assert np.all(cands[:, 0] != cands[:, 1])

    def test_no_duplicate_candidates(self, rng):
        box = 12.0
        pos = rng.uniform(0, box, (60, 3))
        cl = CellList(box, 4)
        cands = canonical_pairs(candidate_pairs_celllist(pos, cl))
        assert len(np.unique(cands, axis=0)) == len(cands)


class TestCanonicalPairs:
    def test_orders_within_rows_and_across(self):
        pairs = np.array([[5, 2], [1, 3], [3, 1]])
        out = canonical_pairs(pairs)
        assert out.tolist() == [[1, 3], [1, 3], [2, 5]]

    def test_empty(self):
        assert canonical_pairs(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def adjacent_cell_pairs(positions: np.ndarray, cell_list: CellList) -> np.ndarray:
    """O(N^2) oracle: every i < j whose cells coincide or touch (periodic)."""
    nc = cell_list.cells_per_side
    coords = np.column_stack(np.unravel_index(cell_list.assign(positions), (nc,) * 3))
    gap = np.abs(coords[:, None, :] - coords[None, :, :])
    touching = (np.minimum(gap, nc - gap) <= 1).all(axis=2)
    return np.argwhere(np.triu(touching, k=1))


class TestPaddedGeneratorParity:
    """The CSR sorted-run generator against a brute-force adjacency oracle.

    (Named for the padded-occupancy generator it was first held to; that
    generator is gone, the configurations it was checked on stay.)
    """

    def test_uniform_gas(self, rng):
        box = 10.5
        pos = rng.uniform(0, box, (200, 3))
        cl = CellList(box, 4)
        a = canonical_pairs(candidate_pairs_celllist(pos, cl))
        assert np.array_equal(a, adjacent_cell_pairs(pos, cl))

    def test_clustered_gas(self, rng):
        box = 10.5
        pos = np.mod(rng.normal(box / 2, 0.7, (200, 3)), box)
        cl = CellList(box, 4)
        a = canonical_pairs(candidate_pairs_celllist(pos, cl))
        assert np.array_equal(a, adjacent_cell_pairs(pos, cl))

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=150))
    @settings(max_examples=25, deadline=None)
    def test_generators_agree_on_random_gases(self, seed, n):
        rng = np.random.default_rng(seed)
        box = 12.0
        # Mix of a blob and a uniform background: skewed occupancies.
        blob = rng.normal(box / 3, 0.5, (n // 2, 3))
        rest = rng.uniform(0, box, (n - n // 2, 3))
        pos = np.mod(np.vstack([blob, rest]), box)
        cl = CellList(box, rng.integers(3, 6))
        a = canonical_pairs(candidate_pairs_celllist(pos, cl))
        assert np.array_equal(a, adjacent_cell_pairs(pos, cl))

    def test_precomputed_sort_is_honoured(self, rng):
        box = 9.0
        pos = rng.uniform(0, box, (90, 3))
        cl = CellList(box, 3)
        sort = cl.cell_sort(pos)
        with_sort = canonical_pairs(candidate_pairs_celllist(pos, cl, sort=sort))
        without = canonical_pairs(candidate_pairs_celllist(pos, cl))
        assert np.array_equal(with_sort, without)

    def test_single_particle_and_empty(self):
        cl = CellList(9.0, 3)
        for pos in (np.empty((0, 3)), np.array([[1.0, 1.0, 1.0]])):
            assert candidate_pairs_celllist(pos, cl).shape == (0, 2)
