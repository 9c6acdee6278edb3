"""Property-based cross-checks of the concentration measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp.assignment import CellAssignment
from repro.theory.concentration import (
    exact_concentration_factor,
    measure_concentration,
)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=25, deadline=None)
def test_estimate_and_oracle_stay_in_domain(seed, empty_fraction):
    """Random occupancy grids: both n estimates are >= 1 and finite."""
    rng = np.random.default_rng(seed)
    assignment = CellAssignment(9, 9)
    counts = (rng.random((9, 9, 9)) > empty_fraction).astype(int) * rng.integers(
        1, 5, (9, 9, 9)
    )
    state = measure_concentration(counts, assignment)
    oracle = exact_concentration_factor(counts, assignment)
    assert state.n >= 1.0 and np.isfinite(state.n)
    assert oracle >= 1.0 and np.isfinite(oracle)
    assert 0.0 <= state.c0_ratio <= 1.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_c0_ratio_invariant_under_assignment_changes(seed):
    """C0/C is a property of the configuration, not of who holds which cell."""
    rng = np.random.default_rng(seed)
    assignment = CellAssignment(9, 9)
    counts = rng.integers(0, 3, (9, 9, 9))
    before = measure_concentration(counts, assignment).c0_ratio
    for pe in range(9):
        movable = assignment.movable_at_home(pe)
        if len(movable):
            assignment.transfer(int(movable[0]),
                                sorted(np.flatnonzero(assignment.lends_to[pe]))[0])
    after = measure_concentration(counts, assignment).c0_ratio
    assert before == after


def test_fig8_style_worked_example():
    """A constructed analogue of Figure 8: known emptiness layout.

    Empty the whole block of PE(0, 0) (81 cells of 729): C0/C = 1/9. The
    maximum domain anchored at that PE contains all 81 of those empty cells
    out of C' = 189, so the oracle n is (81/189) / (1/9) = 3.857...
    """
    assignment = CellAssignment(9, 9)
    counts = np.ones((9, 9, 9), dtype=int)
    counts[0:3, 0:3, :] = 0
    state = measure_concentration(counts, assignment)
    assert state.c0_ratio == pytest.approx(1 / 9)
    oracle = exact_concentration_factor(counts, assignment)
    assert oracle == pytest.approx((81 / 189) / (1 / 9), rel=1e-12)
    # The two-PE estimate is cruder but must point the same way (n >> 1).
    assert state.n > 2.0
