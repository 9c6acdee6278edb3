"""Experiment drivers (smoke-scale runs).

These tests run the same code paths ``examples/reproduce_paper.py`` uses, at
deliberately tiny parameters, and assert the *qualitative* shapes the paper
reports (the example checks the paper's findings at its own scales).
Figure 10 and Table 1 are rendered from a drained campaign's report.
"""

import numpy as np
import pytest

from repro.campaign import CampaignSpec, drain_report, execute_run, get_campaign
from repro.experiments.common import geometry_for
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import Fig10Result, auto_rounds
from repro.experiments.table1 import Table1Result
from repro.workloads.presets import Preset

TINY = Preset(
    name="tiny",
    description="test-size m=2 run",
    n_particles=1000,
    n_pes=9,
    cells_per_side=6,
    density=0.256,
    steps=40,
    attraction=0.6,
    n_attractors=5,
)


class TestFig5:
    def test_produces_aligned_series(self):
        result = run_fig5(TINY, steps=30, record_interval=5)
        assert len(result.ddm.tt) == len(result.dlb.tt) == 6
        assert np.array_equal(result.ddm.steps, result.dlb.steps)

    def test_growth_factors_computable(self):
        result = run_fig5(TINY, steps=30, record_interval=5)
        g_ddm, g_dlb = result.growth()
        assert g_ddm > 0 and g_dlb > 0


class TestFig6:
    """Figure 6 is the Figure 5 runs' Tt/Fmax/Fave/Fmin columns."""

    def test_panels_from_fig5(self):
        fig5 = run_fig5(TINY, steps=30, record_interval=5)
        for run in (fig5.ddm, fig5.dlb):
            assert np.all(run.fmax >= run.fave)
            assert np.all(run.fave >= run.fmin)
            assert np.all(run.tt >= run.fmax)  # Tt includes comm etc.

    def test_gap_is_fmax_minus_fmin(self):
        fig5 = run_fig5(TINY, steps=30, record_interval=5)
        gap = fig5.dlb.fmax - fig5.dlb.fmin
        assert np.array_equal(fig5.dlb.spread, gap)
        k = max(1, len(gap) // 10)
        assert fig5.gap_growth()[1] == pytest.approx(gap[-k:].mean() / gap[:k].mean())


class TestFig9:
    def test_trajectory_shape(self):
        result = run_fig9(m=2, n_pes=9, n_steps=40, rounds_per_config=2)
        trajectory = result.trajectory
        assert len(trajectory) == 40
        assert np.all(trajectory.n >= 1.0)
        assert np.all((trajectory.c0_ratio >= 0) & (trajectory.c0_ratio <= 1))

    def test_concentration_climbs(self):
        result = run_fig9(m=2, n_pes=9, n_steps=60, rounds_per_config=2)
        c0 = result.trajectory.c0_ratio
        assert c0[-5:].mean() > c0[:5].mean()

    def test_boundary_is_the_stored_fig9_quick_payload(self):
        # Figure 9 and the fig9-quick campaign are one run: same geometry,
        # schedule, rounds and detector, so the same boundary point.
        (spec,) = get_campaign("fig9-quick").runs
        payload = execute_run(spec)
        result = run_fig9(
            m=spec.m, n_pes=spec.n_pes, density=spec.density,
            n_steps=spec.n_steps, seed=spec.seed,
        )
        assert payload["diverged"] and result.boundary is not None
        point = result.boundary
        assert (point.step, point.n, point.c0_ratio) == (
            payload["step"], payload["n"], payload["c0_ratio"]
        )
        assert len(result.trajectory) == spec.n_steps


def tiny_grid(densities, pe_counts=(9,), **kwargs) -> CampaignSpec:
    """An m=2 boundary grid of two 60-step repetitions per point."""
    return CampaignSpec.boundary_grid(
        "tiny", m_values=(2,), pe_counts=pe_counts, densities=densities,
        n_repetitions=2, n_steps=60, **kwargs,
    )


class TestFig10:
    def test_auto_rounds_scales(self):
        assert auto_rounds(geometry_for(4, 9)) > auto_rounds(geometry_for(2, 9))

    def test_boundary_experiment_returns_points(self):
        (group,) = drain_report(tiny_grid((0.256,))).boundary_groups
        assert len(group.points) + group.n_failed == 2
        if group.mean_point is not None:
            assert group.mean_point.n >= 1.0
            assert 0 <= group.mean_point.c0_ratio <= 1

    def test_fig10_renders_a_single_panel(self):
        result = Fig10Result.from_report(drain_report(tiny_grid((0.128, 0.256))))
        panel = result.panels[2]
        assert len(panel.groups) == 2
        if panel.fit is not None:
            # E below T: the fitted ratio must be below 1.
            assert 0 < panel.fit.ratio < 1.0
            curve = panel.theoretical_curve(np.array([1.5, 2.0]))
            assert np.all(curve > 0)


class TestTable1:
    def test_grid_structure(self):
        report = drain_report(tiny_grid((0.128, 0.256), pes_seed_offset=True))
        row = Table1Result.from_report(report).row(2)
        assert len(row) == 1
        if row[0] is not None:
            assert 0 < row[0] < 1.0

    def test_spread_across_pes_zero_for_single_column(self):
        report = drain_report(tiny_grid((0.256,), pes_seed_offset=True))
        assert Table1Result.from_report(report).spread_across_pes(2) == 0.0
