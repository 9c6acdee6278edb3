"""Least-squares boundary fits and the E/T comparison of Table 1.

The experimental boundary points of Figure 10 lie along a curve of the same
family as the theoretical bound; the paper fits them with least squares and
reports the ratio of the experimental boundary (E) to the theoretical upper
bound (T). Fitting the one-parameter family ``E(n) = k * f(m, n)`` makes
``k`` exactly that E/T ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from .boundary import BoundaryPoint
from .bounds import upper_bound


@dataclass(frozen=True)
class ETComparison:
    """Result of fitting experimental boundary points against ``f(m, n)``.

    Attributes
    ----------
    m:
        Pillar cross-section of the experiment.
    ratio:
        The fitted scale ``k`` = E/T.
    residual_rms:
        RMS of the fit residuals in ``C0/C`` units.
    n_points:
        Number of boundary points used.
    """

    m: int
    ratio: float
    residual_rms: float
    n_points: int

    def boundary(self, n: np.ndarray | float) -> np.ndarray | float:
        """The fitted experimental boundary ``k * f(m, n)``."""
        return self.ratio * upper_bound(self.m, n)


def fit_boundary_scale(points: list[BoundaryPoint], m: int) -> ETComparison:
    """Least-squares fit of ``C0/C = k * f(m, n)`` through boundary points.

    Minimising ``sum (y_i - k f_i)^2`` gives ``k = sum(y f) / sum(f^2)``,
    both sums ``np.sum`` of products (no BLAS dot, whose summation order
    depends on the build).
    """
    if not points:
        raise AnalysisError("cannot fit a boundary through zero points")
    n_vals = np.array([p.n for p in points], dtype=float)
    y_vals = np.array([p.c0_ratio for p in points], dtype=float)
    f_vals = np.asarray(upper_bound(m, n_vals), dtype=float)
    denom = float(np.sum(f_vals * f_vals))
    if denom <= 0:
        raise AnalysisError("degenerate fit: all theoretical values are zero")
    k = float(np.sum(y_vals * f_vals)) / denom
    residuals = y_vals - k * f_vals
    rms = float(np.sqrt(np.mean(residuals**2)))
    return ETComparison(m=m, ratio=k, residual_rms=rms, n_points=len(points))


def average_points(groups: list[list[BoundaryPoint]]) -> list[BoundaryPoint]:
    """Average repeated runs into one boundary point per group.

    The paper averages ten executions (five initial configurations, each run
    twice) into each plotted point; a group here is those repetitions.
    """
    out: list[BoundaryPoint] = []
    for group in groups:
        if not group:
            raise AnalysisError("empty repetition group")
        out.append(
            BoundaryPoint(
                step=int(round(np.mean([p.step for p in group]))),
                n=float(np.mean([p.n for p in group])),
                c0_ratio=float(np.mean([p.c0_ratio for p in group])),
            )
        )
    return out


def point_error_ranges(groups: list[list[BoundaryPoint]]) -> list[tuple[float, float]]:
    """Standard deviations of (n, C0/C) per repetition group (the paper's
    error ranges in Figure 10)."""
    out: list[tuple[float, float]] = []
    for group in groups:
        if not group:
            raise AnalysisError("empty repetition group")
        out.append(
            (
                float(np.std([p.n for p in group])),
                float(np.std([p.c0_ratio for p in group])),
            )
        )
    return out
