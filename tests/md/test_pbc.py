"""Periodic boundary conditions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.md.pbc import (
    minimum_image,
    minimum_image_inplace,
    pair_displacements,
    pair_distance,
    wrap_positions,
    wrap_positions_inplace,
)

finite_coords = arrays(
    np.float64,
    (7, 3),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


class TestWrapPositions:
    def test_already_inside_is_unchanged(self):
        pos = np.array([[0.0, 2.5, 4.999]])
        assert np.allclose(wrap_positions(pos, 5.0), pos)

    def test_negative_coordinates_fold_in(self):
        pos = np.array([[-0.5, -5.5, -10.0]])
        wrapped = wrap_positions(pos, 5.0)
        assert np.allclose(wrapped, [[4.5, 4.5, 0.0]])

    def test_coordinates_beyond_box_fold_in(self):
        pos = np.array([[5.0, 7.5, 15.1]])
        wrapped = wrap_positions(pos, 5.0)
        assert np.allclose(wrapped, [[0.0, 2.5, 0.1]])

    def test_input_not_modified(self):
        pos = np.array([[6.0, 0.0, 0.0]])
        wrap_positions(pos, 5.0)
        assert pos[0, 0] == 6.0

    def test_inplace_variant_matches(self):
        pos = np.array([[-1.0, 6.0, 2.0], [11.0, -0.1, 4.9]])
        expected = wrap_positions(pos, 5.0)
        wrap_positions_inplace(pos, 5.0)
        assert np.allclose(pos, expected)

    @given(finite_coords)
    @settings(max_examples=50, deadline=None)
    def test_result_always_in_half_open_box(self, pos):
        wrapped = wrap_positions(pos, 7.3)
        assert np.all(wrapped >= 0.0)
        assert np.all(wrapped < 7.3)

    @given(finite_coords)
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, pos):
        once = wrap_positions(pos, 7.3)
        twice = wrap_positions(once, 7.3)
        assert np.allclose(once, twice)


class TestMinimumImage:
    def test_small_displacement_unchanged(self):
        d = np.array([[1.0, -1.0, 0.0]])
        assert np.allclose(minimum_image(d, 10.0), d)

    def test_large_displacement_folds(self):
        d = np.array([[6.0, -6.0, 10.0]])
        assert np.allclose(minimum_image(d, 10.0), [[-4.0, 4.0, 0.0]])

    def test_half_box_maps_to_negative_half(self):
        # Convention: exactly L/2 rounds to -L/2 (numpy round-half-even on 0.5).
        d = np.array([[5.0, 0.0, 0.0]])
        out = minimum_image(d, 10.0)
        assert abs(out[0, 0]) == 5.0

    @given(finite_coords)
    @settings(max_examples=50, deadline=None)
    def test_result_within_half_box(self, d):
        out = minimum_image(d, 9.7)
        assert np.all(np.abs(out) <= 9.7 / 2 + 1e-9)

    @given(finite_coords)
    @settings(max_examples=50, deadline=None)
    def test_antisymmetric(self, d):
        assert np.allclose(minimum_image(-d, 9.7), -minimum_image(d, 9.7), atol=1e-9)

    @given(finite_coords, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_box_shifts(self, d, k):
        shifted = d + k * 9.7
        assert np.allclose(minimum_image(shifted, 9.7), minimum_image(d, 9.7), atol=1e-6)

    def test_inplace_variant_matches(self):
        d = np.array([[6.0, -6.0, 10.0], [0.1, 0.2, -0.3]])
        expected = minimum_image(d, 10.0)
        minimum_image_inplace(d, 10.0)
        assert np.allclose(d, expected)


class TestPairDistance:
    def test_direct_distance(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[3.0, 4.0, 0.0]])
        assert np.allclose(pair_distance(a, b, 100.0), [5.0])

    def test_wrapped_distance_shorter(self):
        a = np.array([[0.5, 0.0, 0.0]])
        b = np.array([[9.5, 0.0, 0.0]])
        assert np.allclose(pair_distance(a, b, 10.0), [1.0])

    def test_symmetric(self, rng):
        a = rng.uniform(0, 8, (20, 3))
        b = rng.uniform(0, 8, (20, 3))
        assert np.allclose(pair_distance(a, b, 8.0), pair_distance(b, a, 8.0))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestPairDisplacements:
    #: Rows whose r² takes a different last bit in each summation order.
    POSITIONS = np.array([
        [3.3, 7.88, 3.03], [4.53, 1.34, 4.03],
        [2.74, 0.07, 6.46], [7.2, 8.36, 2.82],
        [8.95, 4.23, 5.9], [0.24, 6.73, 9.19],
    ])

    def test_r_sq_is_summed_x_z_then_y(self):
        i, j = np.array([0, 2, 4]), np.array([1, 3, 5])
        delta, r_sq = pair_displacements(np.asfortranarray(self.POSITIONS), i, j, 10.0)
        assert [float(r).hex() for r in r_sq] == [
            "0x1.cf810624dd2f3p+3", "0x1.2085bc01a36e3p+5", "0x1.2bcfaacd9e83ep+4",
        ]
        assert delta.shape == (3, 3)
        assert np.array_equal(delta.T, minimum_image(
            self.POSITIONS[i] - self.POSITIONS[j], 10.0
        ))

    def test_layout_moves_no_bit(self):
        i, j = np.array([0, 2, 4, 1]), np.array([1, 3, 5, 5])
        row_major = pair_displacements(self.POSITIONS, i, j, 10.0)
        column_major = pair_displacements(np.asfortranarray(self.POSITIONS), i, j, 10.0)
        for a, b in zip(row_major, column_major):
            assert np.array_equal(a, b)
