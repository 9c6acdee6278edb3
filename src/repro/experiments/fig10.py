"""Figure 10: theoretical upper bounds vs experimental boundary points.

For each pillar cross-section m (panels a-c) and each reduced density, the
paper runs ten repetitions (five initial configurations x two runs), detects
each run's boundary point -- the step where ``Fmax - Fmin`` begins to
increase -- and plots the averaged points against the theoretical bound
``f(m, n)``. The experimental boundary (a least-squares fit through the
points) always lies below the bound, is closer to it for larger m, and mostly
exceeds half of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import api
from ..errors import AnalysisError
from ..rng import repetition_seeds
from ..theory.boundary import BoundaryPoint, boundary_point
from ..theory.bounds import upper_bound
from ..theory.fitting import ETComparison, average_points, fit_boundary_scale
from ..units import PAPER_RHO_SWEEP
from ..workloads.concentration import ConcentrationSchedule
from .common import ExperimentGeometry, droplets_for, geometry_for, simulation_config_for


@dataclass(frozen=True)
class RepetitionOutcome:
    """One repetition of a boundary experiment, keyed by its schedule seed.

    ``point`` is None when the repetition's spread never diverged.  The seed
    alone reproduces the run: it is the :class:`ConcentrationSchedule` seed,
    and every other input is determined by the (m, P, density) geometry.
    """

    seed: int
    point: BoundaryPoint | None

    @property
    def diverged(self) -> bool:
        """Whether this repetition produced a boundary point."""
        return self.point is not None


@dataclass(frozen=True)
class BoundaryExperiment:
    """All repetitions of one (m, P, density) experiment point.

    Attributes
    ----------
    geometry:
        Derived problem geometry.
    points:
        Boundary points of the individual repetitions (diverged runs only).
    mean_point:
        The averaged point the paper plots, or None if no run diverged.
    n_failed:
        Repetitions whose spread never diverged within the sweep.
    repetitions:
        Per-repetition outcomes (seed + optional point), in run order --
        includes the non-diverged repetitions that ``points`` omits.
    """

    geometry: ExperimentGeometry
    points: list[BoundaryPoint]
    mean_point: BoundaryPoint | None
    n_failed: int
    repetitions: tuple[RepetitionOutcome, ...] = ()

    def error_range(self) -> tuple[float, float]:
        """Std of (n, C0/C) across repetitions -- Figure 10's error bars."""
        from ..theory.fitting import point_error_ranges

        if not self.points:
            return (0.0, 0.0)
        return point_error_ranges([self.points])[0]


def auto_rounds(geometry: ExperimentGeometry) -> int:
    """Balancer rounds per configuration, scaled with the domain size.

    The protocol moves one cell per PE per round; for the quasi-static sweep
    to stay quasi-static across problem sizes, the number of rounds between
    configurations must grow with the cells each PE may need to shift (the
    paper's MD runs give DLB thousands of steps for the same reason).
    """
    cells_per_pe = geometry.cells_per_side**3 // geometry.n_pes
    return max(2, round(cells_per_pe / 20))


def run_boundary_repetition(
    m: int,
    n_pes: int,
    density: float,
    schedule_seed: int,
    n_steps: int = 130,
    rounds_per_config: int | None = None,
    detector_kwargs: dict | None = None,
) -> RepetitionOutcome:
    """One concentration sweep: the unit of work a campaign schedules.

    ``schedule_seed`` fully determines the run (geometry is derived from the
    arguments); the same seed always reproduces the same outcome.
    """
    geometry = geometry_for(m, n_pes, density)
    config = simulation_config_for(geometry)
    # A conservative detector (sustained exceedance well above baseline)
    # avoids flagging the first noise bump as the boundary; the paper's own
    # criterion ("begins to increase") is equally about a sustained rise.
    detector_kwargs = {"factor": 2.5, "sustain": 15, **(detector_kwargs or {})}
    if rounds_per_config is None:
        rounds_per_config = auto_rounds(geometry)
    schedule = ConcentrationSchedule(
        n_particles=geometry.n_particles,
        box_length=geometry.box_length,
        n_steps=n_steps,
        n_droplets=droplets_for(geometry),
        seed=int(schedule_seed),
    )
    # Boundary repetitions probe the permanent-cell protocol's DLB limit,
    # so the strategy is part of the experiment's definition.
    result = api.simulate_driven(
        config, schedule, rounds_per_config=rounds_per_config,
        balancer="permanent",
    )
    try:
        point = boundary_point(
            result.spread, result.trajectory, steps=result.steps, **detector_kwargs
        )
    except AnalysisError:
        point = None
    return RepetitionOutcome(seed=int(schedule_seed), point=point)


def experiment_from_outcomes(
    geometry: ExperimentGeometry, outcomes: list[RepetitionOutcome]
) -> BoundaryExperiment:
    """Aggregate per-repetition outcomes into one experiment point."""
    points = [o.point for o in outcomes if o.point is not None]
    return BoundaryExperiment(
        geometry=geometry,
        points=points,
        mean_point=average_points([points])[0] if points else None,
        n_failed=sum(1 for o in outcomes if o.point is None),
        repetitions=tuple(outcomes),
    )


def run_boundary_experiment(
    m: int,
    n_pes: int,
    density: float,
    n_repetitions: int = 10,
    n_steps: int = 130,
    rounds_per_config: int | None = None,
    seed: int = 0,
    detector_kwargs: dict | None = None,
) -> BoundaryExperiment:
    """Repeatedly sweep concentration and detect DLB's breakdown point."""
    geometry = geometry_for(m, n_pes, density)
    # One independent RNG stream per repetition (the paper's five initial
    # configurations, each executed twice, are ten independent runs here).
    outcomes = [
        run_boundary_repetition(
            m,
            n_pes,
            density,
            schedule_seed=schedule_seed,
            n_steps=n_steps,
            rounds_per_config=rounds_per_config,
            detector_kwargs=detector_kwargs,
        )
        for schedule_seed in repetition_seeds(seed, n_repetitions)
    ]
    return experiment_from_outcomes(geometry, outcomes)


@dataclass(frozen=True)
class Fig10Panel:
    """One panel of Figure 10: the four density points for one m."""

    m: int
    n_pes: int
    experiments: list[BoundaryExperiment]
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


def run_fig10(
    m_values: tuple[int, ...] = (2, 3, 4),
    densities: tuple[float, ...] = PAPER_RHO_SWEEP,
    n_pes: int = 36,
    n_repetitions: int = 10,
    n_steps: int = 130,
    seed: int = 0,
) -> Fig10Result:
    """Run every panel of Figure 10.

    Defaults reproduce the paper's setting (36 PEs, densities 0.128-0.512,
    ten repetitions per point); benchmarks pass smaller ``n_pes`` and
    ``n_repetitions`` for speed.
    """
    panels: dict[int, Fig10Panel] = {}
    for m in m_values:
        experiments = [
            run_boundary_experiment(
                m,
                n_pes,
                density,
                n_repetitions=n_repetitions,
                n_steps=n_steps,
                seed=seed + int(1000 * density),
            )
            for density in densities
        ]
        mean_points = [e.mean_point for e in experiments if e.mean_point is not None]
        fit = fit_boundary_scale(mean_points, m) if mean_points else None
        panels[m] = Fig10Panel(m=m, n_pes=n_pes, experiments=experiments, fit=fit)
    return Fig10Result(panels=panels)
