"""Result-structure behaviour of the experiment drivers."""

import numpy as np
import pytest

from repro.campaign.report import BoundaryGroup, CampaignReport
from repro.errors import AnalysisError
from repro.experiments.fig10 import Fig10Panel, Fig10Result
from repro.experiments.table1 import Table1Result
from repro.theory.boundary import BoundaryPoint
from repro.theory.bounds import upper_bound
from repro.theory.fitting import fit_boundary_scale


def make_panel(m: int, ratio: float) -> Fig10Panel:
    points = [
        BoundaryPoint(step=i, n=n, c0_ratio=float(ratio * upper_bound(m, n)))
        for i, n in enumerate((1.2, 1.8, 2.5))
    ]
    return Fig10Panel(m=m, n_pes=9, groups=(), fit=fit_boundary_scale(points, m))


def make_group(points, n_failed=0, m=2, n_pes=9, density=0.256) -> BoundaryGroup:
    """A group of stored boundary payloads: one per point, then the failures."""
    reps = [
        {"seed": i, "diverged": True, "step": p.step, "n": p.n,
         "c0_ratio": p.c0_ratio}
        for i, p in enumerate(points)
    ] + [
        {"seed": 100 + i, "diverged": False, "step": None, "n": None,
         "c0_ratio": None}
        for i in range(n_failed)
    ]
    return BoundaryGroup(m=m, n_pes=n_pes, density=density, repetitions=tuple(reps))


def make_report(*groups: BoundaryGroup) -> CampaignReport:
    return CampaignReport(
        campaign="c", counts={}, boundary_groups=groups, preset_rows=(), failures=()
    )


class TestFig10Result:
    def test_et_ratios(self):
        result = Fig10Result(panels={2: make_panel(2, 0.5), 3: make_panel(3, 0.6)})
        ratios = result.et_ratios()
        assert ratios[2] == pytest.approx(0.5)
        assert ratios[3] == pytest.approx(0.6)

    def test_et_ratios_skips_unfit_panels(self):
        result = Fig10Result(panels={2: Fig10Panel(m=2, n_pes=9, groups=(), fit=None)})
        assert result.et_ratios() == {}

    def test_theoretical_curve(self):
        panel = make_panel(3, 0.5)
        curve = panel.theoretical_curve(np.array([1.0, 2.0]))
        assert curve[0] == pytest.approx(1.0)
        assert curve[1] == pytest.approx(4 / 11)


class TestTable1Result:
    def test_row_and_spread(self):
        result = Table1Result(
            ratios={(2, 16): 0.5, (2, 36): 0.55, (3, 16): 0.6},
            m_values=(2, 3),
            pe_counts=(16, 36),
        )
        assert result.row(2) == [0.5, 0.55]
        assert result.row(3) == [0.6, None]
        assert result.spread_across_pes(2) == pytest.approx(0.05)
        assert result.spread_across_pes(3) == 0.0

    def test_missing_m_is_all_none(self):
        result = Table1Result(ratios={}, m_values=(2,), pe_counts=(16,))
        assert result.row(4) == [None]


class TestBoundaryExperimentErrorRange:
    def test_error_range_of_repetitions(self):
        group = make_group([
            BoundaryPoint(step=1, n=1.0, c0_ratio=0.2),
            BoundaryPoint(step=2, n=3.0, c0_ratio=0.4),
        ])
        n_std, c0_std = group.error_range()
        assert n_std == pytest.approx(1.0)
        assert c0_std == pytest.approx(0.1)

    def test_empty_points_give_zero_range(self):
        group = make_group([], n_failed=3)
        assert group.error_range() == (0.0, 0.0)
        assert group.mean_point is None


class TestRenderedFromReport:
    """Figure 10 and Table 1 are the report's fits, laid out per m / per (m, P)."""

    def points(self, m: int, ratio: float) -> list[BoundaryPoint]:
        return [
            BoundaryPoint(step=1, n=n, c0_ratio=float(ratio * upper_bound(m, n)))
            for n in (1.2, 1.8)
        ]

    def test_fig10_panel_per_m_with_the_fit_of_its_mean_points(self):
        report = make_report(
            make_group(self.points(2, 0.5)[:1], density=0.128),
            make_group(self.points(2, 0.5)[1:], n_failed=1, density=0.256),
            make_group([], n_failed=2, m=3),
        )
        result = Fig10Result.from_report(report)
        assert sorted(result.panels) == [2, 3]
        assert len(result.panels[2].groups) == 2
        assert result.et_ratios() == {2: pytest.approx(0.5)}
        assert result.panels[3].fit is None

    def test_a_panel_has_one_pe_count(self):
        report = make_report(make_group(self.points(2, 0.5)), make_group(
            self.points(2, 0.5), n_pes=16))
        with pytest.raises(AnalysisError, match="one PE count"):
            Fig10Result.from_report(report)

    def test_table1_grid_from_the_fits(self):
        report = make_report(
            make_group(self.points(2, 0.4)[:1], density=0.128),
            make_group(self.points(2, 0.4)[1:], density=0.256),
            make_group(self.points(2, 0.6)[:1], n_pes=16),
            make_group([], n_failed=1, m=3, n_pes=16),
        )
        result = Table1Result.from_report(report)
        assert result.m_values == (2, 3) and result.pe_counts == (9, 16)
        assert result.row(2) == [pytest.approx(0.4), pytest.approx(0.6)]
        assert result.row(3) == [None, None]
