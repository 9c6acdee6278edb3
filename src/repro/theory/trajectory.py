"""Trajectories in (n, C0/C) space (Figure 9).

Every recorded step contributes one point; the trajectory of a cooling,
clustering gas starts near the origin of the plot and climbs as cells empty
out and particles concentrate. The experimental boundary point of a run is a
specific point on this trajectory (see :mod:`repro.theory.boundary`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class Trajectory:
    """Immutable (step, n, C0/C) series."""

    steps: np.ndarray
    n: np.ndarray
    c0_ratio: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.steps) == len(self.n) == len(self.c0_ratio)):
            raise AnalysisError("trajectory arrays must have equal length")

    def __len__(self) -> int:
        return len(self.steps)

    def point_at_step(self, step: int) -> tuple[float, float]:
        """The (n, C0/C) point recorded at ``step`` (nearest record if absent)."""
        if len(self.steps) == 0:
            raise AnalysisError("empty trajectory")
        idx = int(np.argmin(np.abs(self.steps - step)))
        return float(self.n[idx]), float(self.c0_ratio[idx])
