"""Experimental boundary-point detection (Section 4.2).

The paper decides the boundary of DLB's effective range "by finding a time
step at which the difference between the maximum and the minimum of force
computing time begins to increase". This module implements that detector:
smooth the ``Fmax - Fmin`` series, establish a baseline over the balanced
early phase, and report the first step where the spread rises above the
baseline by a sustained margin.

The detector has one setting, the module constants below. It is
conservative (a sustained exceedance well above the baseline), so the first
noise bump is never taken for the boundary; the paper's own criterion
("begins to increase") is equally about a sustained rise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from .trajectory import Trajectory

#: Moving-average window (records) that suppresses step-to-step noise.
WINDOW = 11
#: Fraction of the series (from the start) taken as the balanced baseline.
BASELINE_FRACTION = 0.2
#: The spread counts as diverged once it exceeds ``FACTOR`` times the
#: baseline (see :func:`divergence_threshold`).
FACTOR = 2.5
#: The exceedance must persist for this many consecutive records.
SUSTAIN = 15


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


def detect_divergence_step(spread: np.ndarray, steps: np.ndarray | None = None) -> int:
    """First step where the (smoothed) spread begins a sustained increase.

    Parameters
    ----------
    spread:
        The ``Fmax - Fmin`` series.
    steps:
        Optional step labels aligned with ``spread``; defaults to indices.

    Raises
    ------
    AnalysisError
        If the series is too short or never diverges.
    """
    spread = np.asarray(spread, dtype=float)
    if len(spread) < SUSTAIN + 1:
        raise AnalysisError(f"spread series too short ({len(spread)} records)")
    smooth = moving_average(spread, WINDOW)
    n_base = max(1, int(len(smooth) * BASELINE_FRACTION))
    threshold = divergence_threshold(smooth[:n_base])

    above = smooth > threshold
    # Find the first index from which SUSTAIN consecutive records are above.
    run = 0
    for idx in range(len(above)):
        run = run + 1 if above[idx] else 0
        if run >= SUSTAIN:
            start = idx - SUSTAIN + 1
            if steps is not None:
                return int(np.asarray(steps)[start])
            return start
    raise AnalysisError("the spread never diverges: DLB stayed within its limit")


def divergence_threshold(baseline: np.ndarray) -> float:
    """The smoothed spread above which a run counts as diverged.

    ``baseline`` is the smoothed spread of the balanced prefix. The
    threshold is :data:`FACTOR` times its median, at least 5 % over its peak,
    and never below an absolute floor that keeps a near-zero baseline from
    flagging noise.
    """
    median = float(np.median(baseline))
    return max(FACTOR * median, median + 1e-12, float(np.max(baseline)) * 1.05)


def boundary_point(
    spread: np.ndarray,
    trajectory: Trajectory,
    steps: np.ndarray | None = None,
) -> BoundaryPoint:
    """Detect the divergence step and read its (n, C0/C) off the trajectory."""
    step = detect_divergence_step(spread, steps=steps)
    n, c0 = trajectory.point_at_step(step)
    return BoundaryPoint(step=step, n=n, c0_ratio=c0)
