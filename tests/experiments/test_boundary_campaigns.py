"""Figure 10 and Table 1 shape oracles on the built-in ``-quick`` campaigns.

Each campaign is drained once for this module, through an in-memory store,
and the figure and table are rendered from its report -- the path the CLI
and the examples take. The checks are the paper's findings: every mean
boundary point lies below the theoretical bound ``f(m, n)``, each Figure 10
panel detects a boundary at two densities or more, every fitted E/T is a
fraction, and a Table 1 row barely moves across PE counts. The fitted
values are pinned to the ones EXPERIMENTS.md records.
"""

import pytest

from repro.campaign import drain_report, get_campaign
from repro.experiments.fig10 import Fig10Result
from repro.experiments.table1 import Table1Result
from repro.theory.bounds import upper_bound


@pytest.fixture(scope="module")
def fig10_report():
    return drain_report(get_campaign("fig10-quick"), workers=2)


@pytest.fixture(scope="module")
def table1_report():
    return drain_report(get_campaign("table1-quick"), workers=2)


@pytest.fixture(params=["fig10", "table1"])
def report(request, fig10_report, table1_report):
    return fig10_report if request.param == "fig10" else table1_report


def test_every_mean_point_lies_below_the_bound(report):
    groups = [g for g in report.boundary_groups if g.mean_point is not None]
    assert groups
    for group in groups:
        point = group.mean_point
        assert point.c0_ratio < upper_bound(group.m, point.n), (group.m, group.density)


def test_every_fitted_k_is_a_fraction(report):
    fits = report.fits()
    assert set(fits) == {(g.m, g.n_pes) for g in report.boundary_groups}
    for key, fit in fits.items():
        assert 0.0 < fit.ratio < 1.0, key


def test_each_fig10_panel_detects_two_densities(fig10_report):
    result = Fig10Result.from_report(fig10_report)
    assert sorted(result.panels) == [2, 3, 4]
    for m, panel in result.panels.items():
        detected = [g for g in panel.groups if g.mean_point is not None]
        assert len(detected) >= 2, m
        assert panel.n_pes == 9 and panel.fit is not None


def test_table1_rows_barely_move_across_pe_counts(table1_report):
    result = Table1Result.from_report(table1_report)
    assert result.pe_counts == (9, 16)
    for m in result.m_values:
        assert None not in result.row(m)
        assert result.spread_across_pes(m) < 0.3, m


def test_fitted_values_are_the_recorded_ones(fig10_report, table1_report):
    assert Fig10Result.from_report(fig10_report).et_ratios() == {
        2: pytest.approx(0.4196494195657029, rel=1e-9),
        3: pytest.approx(0.3115564120148704, rel=1e-9),
        4: pytest.approx(0.364964749860928, rel=1e-9),
    }
    assert Table1Result.from_report(table1_report).ratios == {
        (2, 9): pytest.approx(0.5213526669286883, rel=1e-9),
        (2, 16): pytest.approx(0.3031765149564288, rel=1e-9),
        (3, 9): pytest.approx(0.26350186286638905, rel=1e-9),
        (3, 16): pytest.approx(0.3203455123945066, rel=1e-9),
    }
