"""Per-step timing records: the quantities Figures 5 and 6 plot.

``Tt``  -- execution time of the step (max over PEs: barrier semantics).
``Fmax/Fave/Fmin`` -- maximum / average / minimum force-calculation time
across PEs (Figure 6's four curves).

This module also surfaces :class:`NeighborStats` -- the pair-search layer's
counters (Verlet-list rebuilds vs reuses, candidate vs accepted pairs) --
so runners can report the neighbour-caching win alongside the timing series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..md.neighbors import NeighborStats

__all__ = ["NeighborStats", "StepComponents", "StepTiming"]


@dataclass(frozen=True)
class StepComponents:
    """Per-PE phase breakdown of one accounted step.

    The :class:`~repro.core.accounting.StepAccountant` keeps its latest
    breakdown so observers (the trace recorder's per-PE phase spans, the
    per-phase report) can see *where* each PE's time went, not just the
    aggregates of :class:`StepTiming`.
    """

    force_times: np.ndarray
    comm_times: np.ndarray
    other_times: np.ndarray
    dlb_time: float = 0.0

    @property
    def n_pes(self) -> int:
        """Number of PEs in the breakdown."""
        return len(self.force_times)


@dataclass(frozen=True)
class StepTiming:
    """Timing of one simulated step."""

    step: int
    tt: float
    fmax: float
    fave: float
    fmin: float
    comm_max: float = 0.0
    dlb_time: float = 0.0

    @property
    def spread(self) -> float:
        """Force-time imbalance ``Fmax - Fmin`` (the boundary detector's input)."""
        return self.fmax - self.fmin

    @staticmethod
    def from_components(
        step: int,
        force_times: np.ndarray,
        comm_times: np.ndarray,
        other_times: np.ndarray,
        dlb_time: float = 0.0,
    ) -> "StepTiming":
        """Build a record from per-PE component arrays.

        ``Tt`` is the barrier time: max over PEs of (force + comm + other)
        plus the DLB overhead charged to every PE.
        """
        totals = force_times + comm_times + other_times + dlb_time
        return StepTiming(
            step=step,
            tt=float(totals.max()),
            fmax=float(force_times.max()),
            fave=float(force_times.mean()),
            fmin=float(force_times.min()),
            comm_max=float(comm_times.max()),
            dlb_time=float(dlb_time),
        )
