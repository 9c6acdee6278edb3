"""Experimental boundary-point detection (Section 4.2).

The paper decides the boundary of DLB's effective range "by finding a time
step at which the difference between the maximum and the minimum of force
computing time begins to increase". This module implements that detector:
smooth the ``Fmax - Fmin`` series, establish a baseline over the balanced
early phase, and report the first step where the spread rises above the
baseline by a sustained margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from .trajectory import Trajectory


@dataclass(frozen=True)
class BoundaryPoint:
    """An experimental boundary point of DLB's effective range.

    Attributes
    ----------
    step:
        Step at which the spread begins to increase.
    n:
        Concentration factor there.
    c0_ratio:
        Particle concentration ratio there.
    """

    step: int
    n: float
    c0_ratio: float


def moving_average(series: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average with edge shrinkage (same length as input)."""
    if window <= 0:
        raise AnalysisError(f"window must be positive, got {window}")
    if window == 1 or len(series) <= 1:
        return np.asarray(series, dtype=float).copy()
    kernel = np.ones(min(window, len(series)))
    weights = np.convolve(np.ones_like(series, dtype=float), kernel, mode="same")
    return np.convolve(np.asarray(series, dtype=float), kernel, mode="same") / weights


def detect_divergence_step(
    spread: np.ndarray,
    steps: np.ndarray | None = None,
    window: int = 11,
    baseline_fraction: float = 0.2,
    factor: float = 2.0,
    sustain: int = 10,
) -> int:
    """First step where the (smoothed) spread begins a sustained increase.

    Parameters
    ----------
    spread:
        The ``Fmax - Fmin`` series.
    steps:
        Optional step labels aligned with ``spread``; defaults to indices.
    window:
        Moving-average window for noise suppression.
    baseline_fraction:
        Fraction of the series (from the start) treated as the balanced
        baseline.
    factor:
        The spread counts as diverged once it exceeds ``factor * baseline``.
    sustain:
        The exceedance must persist for this many consecutive records.

    Raises
    ------
    AnalysisError
        If the series is too short or never diverges.
    """
    spread = np.asarray(spread, dtype=float)
    if len(spread) < max(3, sustain + 1):
        raise AnalysisError(f"spread series too short ({len(spread)} records)")
    if not 0 < baseline_fraction < 1:
        raise AnalysisError(f"baseline_fraction must be in (0, 1), got {baseline_fraction}")
    smooth = moving_average(spread, window)
    n_base = max(1, int(len(smooth) * baseline_fraction))
    threshold = divergence_threshold(smooth[:n_base], factor)

    above = smooth > threshold
    # Find the first index from which `sustain` consecutive records are above.
    run = 0
    for idx in range(len(above)):
        run = run + 1 if above[idx] else 0
        if run >= sustain:
            start = idx - sustain + 1
            if steps is not None:
                return int(np.asarray(steps)[start])
            return start
    raise AnalysisError("the spread never diverges: DLB stayed within its limit")


def divergence_threshold(baseline: np.ndarray, factor: float) -> float:
    """The smoothed spread above which a run counts as diverged.

    ``baseline`` is the smoothed spread of the balanced prefix. The
    threshold is ``factor`` times its median, at least 5 % over its peak,
    and never below an absolute floor that keeps a near-zero baseline from
    flagging noise.
    """
    median = float(np.median(baseline))
    return max(factor * median, median + 1e-12, float(np.max(baseline)) * 1.05)


def boundary_point(
    spread: np.ndarray,
    trajectory: Trajectory,
    steps: np.ndarray | None = None,
    **kwargs,
) -> BoundaryPoint:
    """Detect the divergence step and read its (n, C0/C) off the trajectory."""
    step = detect_divergence_step(spread, steps=steps, **kwargs)
    n, c0 = trajectory.point_at_step(step)
    return BoundaryPoint(step=step, n=n, c0_ratio=c0)
