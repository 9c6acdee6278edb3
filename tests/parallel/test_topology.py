"""Interconnect topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.parallel.topology import Ring, Torus2D, Torus3D, torus_for_pes


class TestRing:
    def test_two_neighbors(self):
        assert Ring(5).neighbors(0) == [1, 4]

    def test_tiny_ring(self):
        assert Ring(2).neighbors(0) == [1]
        assert Ring(1).neighbors(0) == []

    def test_rejects_bad_pe(self):
        with pytest.raises(ConfigurationError):
            Ring(3).neighbors(3)


class TestTorus2D:
    def test_coords_flat_roundtrip(self):
        t = Torus2D(4)
        for pe in range(16):
            i, j = t.coords(pe)
            assert t.flat(i, j) == pe

    def test_flat_wraps(self):
        t = Torus2D(3)
        assert t.flat(-1, -1) == t.flat(2, 2)

    def test_eight_neighbors(self):
        t = Torus2D(4)
        assert len(t.neighbors(5)) == 8

    def test_three_by_three_has_eight_distinct_neighbors(self):
        t = Torus2D(3)
        assert len(t.neighbors(4)) == 8

    def test_neighborhood_order_and_length(self):
        t = Torus2D(4)
        hood = t.neighborhood(5)
        assert len(hood) == 9
        assert hood[0] == 5

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 6])
    def test_neighborhood_table_rows_follow_offsets_order(self, side):
        t = Torus2D(side)
        assert t.neighborhood_table.shape == (side * side, 9)
        for pe in range(t.n_pes):
            i, j = t.coords(pe)
            expected = [pe] + [t.flat(i + di, j + dj) for di, dj in Torus2D.OFFSETS]
            assert t.neighborhood(pe) == expected
            assert t.neighborhood_table[pe].tolist() == expected

    def test_neighborhood_table_is_read_only(self):
        with pytest.raises(ValueError):
            Torus2D(3).neighborhood_table[0, 0] = 5

    def test_neighborhood_rejects_bad_pe(self):
        with pytest.raises(ConfigurationError):
            Torus2D(3).neighborhood(-1)

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 8])
    def test_offset_equals_the_rounded_fold(self, side):
        """Integer fold == ``d - side * floor(d / side + 0.5)`` for every pair."""
        import math

        t = Torus2D(side)
        for src in range(t.n_pes):
            for dst in range(t.n_pes):
                raw = (dst // side - src // side, dst % side - src % side)
                folded = tuple(int(d - side * math.floor(d / side + 0.5)) for d in raw)
                assert t.offset(src, dst) == folded

    def test_offset_adjacent(self):
        t = Torus2D(4)
        assert t.offset(t.flat(1, 1), t.flat(0, 1)) == (-1, 0)
        assert t.offset(t.flat(1, 1), t.flat(2, 2)) == (1, 1)

    def test_offset_wraps(self):
        t = Torus2D(4)
        assert t.offset(t.flat(0, 0), t.flat(3, 0)) == (-1, 0)
        assert t.offset(t.flat(0, 0), t.flat(0, 3)) == (0, -1)

    def test_offset_self_is_zero(self):
        t = Torus2D(5)
        assert t.offset(7, 7) == (0, 0)

    @given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=80),
           st.integers(min_value=0, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_are_neighbors_symmetric(self, side, a, b):
        t = Torus2D(side)
        a %= t.n_pes
        b %= t.n_pes
        assert t.are_neighbors(a, b) == t.are_neighbors(b, a)

    @given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=80))
    @settings(max_examples=40, deadline=None)
    def test_neighbors_consistent_with_are_neighbors(self, side, pe):
        t = Torus2D(side)
        pe %= t.n_pes
        for other in range(t.n_pes):
            expected = other in t.neighbors(pe)
            assert t.are_neighbors(pe, other) == expected

    def test_rejects_bad_pe(self):
        with pytest.raises(ConfigurationError):
            Torus2D(3).coords(9)


class TestTorus3D:
    def test_26_neighbors(self):
        t = Torus3D(4)
        assert len(t.neighbors(0)) == 26

    def test_three_sided(self):
        t = Torus3D(3)
        assert len(t.neighbors(13)) == 26

    def test_coords_roundtrip(self):
        t = Torus3D(3)
        for pe in range(27):
            assert t.flat(*t.coords(pe)) == pe


class TestTorusForPes:
    def test_builds_square_torus(self):
        assert torus_for_pes(36).side == 6

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError):
            torus_for_pes(8)
