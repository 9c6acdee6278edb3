"""Per-step timing records: the quantities Figures 5 and 6 plot.

``Tt``  -- execution time of the step (max over PEs: barrier semantics).
``Fmax/Fave/Fmin`` -- maximum / average / minimum force-calculation time
across PEs (Figure 6's four curves).

This module also surfaces :class:`NeighborStats` -- the pair-search layer's
counters (Verlet-list rebuilds vs reuses, candidate vs accepted pairs) --
so runners can report the neighbour-caching win alongside the timing series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError
from ..md.neighbors import NeighborStats

__all__ = ["NeighborStats", "StepComponents", "StepTiming", "TimingLog"]


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


@dataclass
class TimingLog:
    """Append-only log of :class:`StepTiming` with array views for analysis.

    Column arrays are cached and invalidated on append, so repeated property
    access (the boundary detector scans ``spread`` once per sweep candidate)
    costs one build per appended batch instead of one per read. Cached arrays
    are shared: treat them as read-only.
    """

    records: list[StepTiming] = field(default_factory=list)
    _columns: dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def append(self, record: StepTiming) -> None:
        """Add one step record (invalidates the cached column arrays)."""
        self.records.append(record)
        if self._columns:
            self._columns.clear()

    def __len__(self) -> int:
        return len(self.records)

    def _column(self, name: str) -> np.ndarray:
        if not self.records:
            raise AnalysisError("timing log is empty")
        cached = self._columns.get(name)
        if cached is None:
            cached = np.array([getattr(r, name) for r in self.records], dtype=np.float64)
            self._columns[name] = cached
        return cached

    @property
    def steps(self) -> np.ndarray:
        """Step indices of the records."""
        if not self.records:
            raise AnalysisError("timing log is empty")
        cached = self._columns.get("steps")
        if cached is None:
            cached = np.array([r.step for r in self.records], dtype=np.int64)
            self._columns["steps"] = cached
        return cached

    @property
    def tt(self) -> np.ndarray:
        """Per-step execution times (``Tt`` series of Figure 5/6)."""
        return self._column("tt")

    @property
    def fmax(self) -> np.ndarray:
        """Per-step maximum force time across PEs."""
        return self._column("fmax")

    @property
    def fave(self) -> np.ndarray:
        """Per-step average force time across PEs."""
        return self._column("fave")

    @property
    def fmin(self) -> np.ndarray:
        """Per-step minimum force time across PEs."""
        return self._column("fmin")

    @property
    def comm_max(self) -> np.ndarray:
        """Per-step maximum communication time across PEs."""
        return self._column("comm_max")

    @property
    def dlb_time(self) -> np.ndarray:
        """Per-step DLB protocol overhead."""
        return self._column("dlb_time")

    @property
    def spread(self) -> np.ndarray:
        """Per-step ``Fmax - Fmin`` series."""
        cached = self._columns.get("spread")
        if cached is None:
            cached = self.fmax - self.fmin
            self._columns["spread"] = cached
        return cached
