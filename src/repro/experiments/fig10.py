"""Figure 10: theoretical upper bounds vs experimental boundary points.

For each pillar cross-section m (panels a-c) and each reduced density, the
paper runs ten repetitions (five initial configurations x two runs), detects
each run's boundary point -- the step where ``Fmax - Fmin`` begins to
increase -- and plots the averaged points against the theoretical bound
``f(m, n)``. The experimental boundary (a least-squares fit through the
points) always lies below the bound, is closer to it for larger m, and mostly
exceeds half of it.

The repetitions are a campaign (``fig10-quick``/``fig10-full``): this module
holds the campaign's unit of work, :func:`run_boundary_repetition` (one
:func:`drive_sweep` and the detector -- the only code that locates a
boundary), and the figure rendered from a stored report,
:meth:`Fig10Result.from_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import TYPE_CHECKING

import numpy as np

from .. import api
from ..core.results import RunResult
from ..errors import AnalysisError
from ..theory.boundary import BoundaryPoint, boundary_point
from ..theory.bounds import upper_bound
from ..theory.fitting import ETComparison
from ..workloads.concentration import ConcentrationSchedule
from .common import ExperimentGeometry, droplets_for, geometry_for, simulation_config_for

if TYPE_CHECKING:
    from ..campaign.report import BoundaryGroup, CampaignReport
    from ..obs import Observability


def auto_rounds(geometry: ExperimentGeometry) -> int:
    """Balancer rounds per configuration, scaled with the domain size.

    The protocol moves one cell per PE per round; for the quasi-static sweep
    to stay quasi-static across problem sizes, the number of rounds between
    configurations must grow with the cells each PE may need to shift (the
    paper's MD runs give DLB thousands of steps for the same reason).
    """
    cells_per_pe = geometry.cells_per_side**3 // geometry.n_pes
    return max(2, round(cells_per_pe / 20))


def drive_sweep(
    m: int,
    n_pes: int,
    density: float,
    schedule_seed: int,
    n_steps: int,
    rounds_per_config: int | None = None,
    hold: tuple[int, int] | None = None,
    observability: Observability | None = None,
) -> RunResult:
    """Drive one (m, P, density) concentration sweep under the permanent-cell
    balancer: the setup both driven run kinds share.

    ``rounds_per_config`` None is :func:`auto_rounds`. ``hold=(index,
    n_hold)`` stops the schedule at level ``index`` and holds that level for
    ``n_hold`` more configurations (the probe run kind).
    """
    geometry = geometry_for(m, n_pes, density)
    if rounds_per_config is None:
        rounds_per_config = auto_rounds(geometry)
    schedule = ConcentrationSchedule(
        n_particles=geometry.n_particles,
        box_length=geometry.box_length,
        n_steps=n_steps,
        n_droplets=droplets_for(geometry),
        seed=int(schedule_seed),
    )
    configurations = schedule if hold is None else _held(schedule, *hold)
    # Driven sweeps probe the permanent-cell protocol's DLB limit, so the
    # strategy is part of the experiment's definition.
    return api.simulate_driven(
        simulation_config_for(geometry),
        configurations,
        rounds_per_config=rounds_per_config,
        balancer="permanent",
        observability=observability,
    )


def _held(schedule: ConcentrationSchedule, index: int, n_hold: int):
    """The schedule's prefix up to level ``index``, then that level held."""
    for configuration in islice(schedule, index + 1):
        yield configuration
    yield from repeat(configuration, n_hold)


def run_boundary_repetition(
    m: int,
    n_pes: int,
    density: float,
    schedule_seed: int,
    n_steps: int = 130,
    rounds_per_config: int | None = None,
) -> tuple[RunResult, BoundaryPoint | None]:
    """One concentration sweep: the unit of work a campaign schedules.

    Returns the driven run (its trajectory is Figure 9) and its boundary
    point from the fixed detector of :mod:`repro.theory.boundary`, None
    when the spread never diverged. ``schedule_seed`` fully determines the
    run (geometry is derived from the arguments); the same seed always
    reproduces the same outcome.
    """
    result = drive_sweep(m, n_pes, density, schedule_seed, n_steps, rounds_per_config)
    try:
        point = boundary_point(result.spread, result.trajectory, steps=result.steps)
    except AnalysisError:
        point = None
    return result, point


@dataclass(frozen=True)
class Fig10Panel:
    """One panel of Figure 10: the density points for one m."""

    m: int
    n_pes: int
    groups: tuple[BoundaryGroup, ...]
    fit: ETComparison | None

    def theoretical_curve(self, n_values: np.ndarray) -> np.ndarray:
        """Samples of the theoretical bound ``f(m, n)``."""
        return np.asarray(upper_bound(self.m, n_values))


@dataclass(frozen=True)
class Fig10Result:
    """All panels of Figure 10."""

    panels: dict[int, Fig10Panel]

    def et_ratios(self) -> dict[int, float]:
        """Fitted E/T ratio per m (panels without a fit are omitted)."""
        return {
            m: panel.fit.ratio for m, panel in self.panels.items() if panel.fit is not None
        }

    @classmethod
    def from_report(cls, report: CampaignReport) -> Fig10Result:
        """One panel per m of a boundary campaign's report (one P per m)."""
        fits = report.fits()
        by_m: dict[int, list[BoundaryGroup]] = {}
        for group in report.boundary_groups:
            by_m.setdefault(group.m, []).append(group)
        panels = {}
        for m, groups in by_m.items():
            pe_counts = sorted({group.n_pes for group in groups})
            if len(pe_counts) != 1:
                raise AnalysisError(
                    f"a Figure 10 panel has one PE count; m={m} has {pe_counts}"
                )
            (n_pes,) = pe_counts
            panels[m] = Fig10Panel(
                m=m, n_pes=n_pes, groups=tuple(groups), fit=fits.get((m, n_pes))
            )
        return cls(panels=panels)
