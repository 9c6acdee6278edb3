"""Figures 5 and 6: execution time per step, DDM vs DLB-DDM, and its detail.

The paper runs the supercooled gas for thousands of steps on 36 T3E PEs and
plots the per-step execution time of plain DDM against DLB-DDM: DDM's time
grows as particles concentrate, DLB-DDM's stays nearly flat (much more so for
m = 4 than m = 2, whose movable fraction is only 1/4). Figure 6 plots the
same two runs' ``tt``, ``fmax``, ``fave`` and ``fmin`` columns: under DDM the
gap between Fmax and Fmin widens with the time step and Tt tracks Fmax
(barrier synchronisation); DLB-DDM holds Fmax close to Fmin until the
concentration exceeds the DLB limit.

The scaled reproduction keeps m, the density, and the cells-per-PE ratio
while shrinking N and P, and accelerates the gas's clustering with seeded
nucleation sites (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import api
from ..config import RunConfig
from ..core.results import RunResult
from ..errors import AnalysisError
from ..workloads.presets import Preset, get_preset


@dataclass(frozen=True)
class Fig5Result:
    """Both curves of one Figure 5 panel."""

    preset: Preset
    ddm: RunResult
    dlb: RunResult

    def growth(self) -> tuple[float, float]:
        """Per-curve growth factor ``tt_last / tt_first`` (DDM, DLB-DDM).

        The paper's qualitative claim is ``growth(DDM) >> growth(DLB-DDM)``.
        Both series are smoothed over their first/last deciles to keep one
        noisy step from dominating.
        """
        return _growth(self.ddm.tt), _growth(self.dlb.tt)

    def gap_growth(self) -> tuple[float, float]:
        """Per-curve growth factor of the Figure 6 gap ``Fmax - Fmin`` (DDM,
        DLB-DDM), decile-smoothed like :meth:`growth`."""
        return _growth(self.ddm.spread), _growth(self.dlb.spread)


def _growth(series: np.ndarray) -> float:
    """Mean of the last decile over the mean of the first."""
    k = max(1, len(series) // 10)
    start = float(series[:k].mean())
    if start <= 0:
        raise AnalysisError("degenerate growth baseline")
    return float(series[-k:].mean()) / start


def run_fig5(
    preset: str | Preset = "fig5b-scaled",
    steps: int | None = None,
    seed: int = 7,
    record_interval: int = 20,
    n_attractors: int | None = None,
    engine: str | None = None,
    engine_workers: int | None = None,
) -> Fig5Result:
    """Run one Figure 5 panel (both curves) and return the series.

    ``preset`` names a workload (e.g. ``"fig5a-scaled"`` for the m=4 panel,
    ``"fig5b-scaled"`` for m=2); ``steps`` overrides its recommended length.
    ``engine`` selects an execution engine for the force path (see
    :func:`repro.api.simulate`); results are engine-independent by design.
    """
    preset = get_preset(preset) if isinstance(preset, str) else preset
    config = preset.simulation_config()
    if n_attractors is not None:
        config = replace(config, md=replace(config.md, n_attractors=n_attractors))
    run = RunConfig(
        steps=steps if steps is not None else preset.steps,
        seed=seed,
        record_interval=record_interval,
    )
    ddm, dlb = (
        api.simulate(config, run=replace(run, balancer=balancer), engine=engine,
                     engine_workers=engine_workers)
        for balancer in ("none", "permanent")
    )
    return Fig5Result(preset=preset, ddm=ddm, dlb=dlb)
