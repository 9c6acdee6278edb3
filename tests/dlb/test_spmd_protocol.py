"""Distributed vs centralised protocol equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DLBConfig
from repro.decomp.assignment import CellAssignment
from repro.dlb.spmd_protocol import spmd_decide
from repro.dlb.strategies import create_balancer
from repro.errors import ConfigurationError


class TestEquivalence:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_centralised_balancer_on_fresh_assignment(self, seed):
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.1, 2.0, 9)
        a = CellAssignment(9, 9)
        b = CellAssignment(9, 9)
        central = create_balancer(a, strategy="permanent").decide(times)
        distributed = spmd_decide(b, times)
        assert central == distributed

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_after_history(self, seed):
        """Equivalence must also hold mid-run, with cells already lent."""
        rng = np.random.default_rng(seed)
        a = CellAssignment(9, 9)
        balancer = create_balancer(a, strategy="permanent")
        for _ in range(30):
            balancer.step(rng.uniform(0.1, 2.0, 9))
        b = CellAssignment(9, 9)
        b.holder[...] = a.holder  # same world state
        times = rng.uniform(0.1, 2.0, 9)
        assert create_balancer(a, strategy="permanent").decide(times) == spmd_decide(b, times)

    def test_matches_with_multiple_sends(self):
        times = np.ones(9)
        times[0] = 0.01
        a = CellAssignment(9, 9)
        b = CellAssignment(9, 9)
        central = create_balancer(
            a, DLBConfig(max_sends_per_step=3), strategy="permanent"
        ).decide(times)
        distributed = spmd_decide(b, times, max_sends_per_step=3)
        assert central == distributed
        assert len(central) > 0


class TestValidation:
    def test_rejects_wrong_times_shape(self):
        with pytest.raises(ConfigurationError):
            spmd_decide(CellAssignment(9, 9), np.zeros(4))

    def test_rejects_tiny_torus(self):
        with pytest.raises(ConfigurationError):
            spmd_decide(CellAssignment(4, 4), np.zeros(4))

    def test_balanced_world_is_quiet(self):
        assert spmd_decide(CellAssignment(9, 9), np.ones(9)) == []
