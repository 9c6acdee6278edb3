"""(n, C0/C) trajectories."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.theory.trajectory import Trajectory


class TestTrajectory:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(AnalysisError):
            Trajectory(steps=np.arange(3), n=np.ones(2), c0_ratio=np.ones(3))

    def test_point_at_exact_step(self):
        t = Trajectory(
            steps=np.array([10, 20, 30]),
            n=np.array([1.0, 1.5, 2.0]),
            c0_ratio=np.array([0.1, 0.2, 0.3]),
        )
        assert t.point_at_step(20) == (1.5, 0.2)

    def test_point_at_nearest_step(self):
        t = Trajectory(
            steps=np.array([10, 20, 30]),
            n=np.array([1.0, 1.5, 2.0]),
            c0_ratio=np.array([0.1, 0.2, 0.3]),
        )
        assert t.point_at_step(22) == (1.5, 0.2)

    def test_empty_trajectory_raises(self):
        t = Trajectory(steps=np.array([], dtype=int), n=np.array([]), c0_ratio=np.array([]))
        with pytest.raises(AnalysisError):
            t.point_at_step(5)

    def test_len(self):
        t = Trajectory(steps=np.arange(4), n=np.ones(4), c0_ratio=np.ones(4))
        assert len(t) == 4
