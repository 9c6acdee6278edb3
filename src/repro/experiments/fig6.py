"""Figure 6: per-step timing detail -- Tt, Fmax, Fave, Fmin.

Panel (a) shows plain DDM: the gap between Fmax and Fmin widens rapidly with
the time step and Tt tracks Fmax (barrier synchronisation). Panel (b) shows
DLB-DDM holding Fmax close to Fmin for thousands of steps, with the gap
reopening only once concentration exceeds the DLB limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.results import RunResult
from ..errors import AnalysisError
from .fig5 import Fig5Result


@dataclass(frozen=True)
class Fig6Panel:
    """The four curves of one Figure 6 panel."""

    steps: np.ndarray
    tt: np.ndarray
    fmax: np.ndarray
    fave: np.ndarray
    fmin: np.ndarray

    @property
    def gap(self) -> np.ndarray:
        """``Fmax - Fmin`` over the run."""
        return self.fmax - self.fmin

    def gap_growth(self) -> float:
        """Gap at the end relative to the start (decile-smoothed)."""
        gap = self.gap
        k = max(1, len(gap) // 10)
        start = float(gap[:k].mean())
        end = float(gap[-k:].mean())
        if start <= 0:
            raise AnalysisError("degenerate gap baseline")
        return end / start


@dataclass(frozen=True)
class Fig6Result:
    """Both panels: DDM (a) and DLB-DDM (b)."""

    ddm: Fig6Panel
    dlb: Fig6Panel


def _panel(result: RunResult) -> Fig6Panel:
    log = result.timing
    return Fig6Panel(
        steps=log.steps, tt=log.tt, fmax=log.fmax, fave=log.fave, fmin=log.fmin
    )


def fig6_from_fig5(fig5: Fig5Result) -> Fig6Result:
    """Extract the Figure 6 panels from an existing Figure 5 run (no rerun)."""
    return Fig6Result(ddm=_panel(fig5.ddm), dlb=_panel(fig5.dlb))
