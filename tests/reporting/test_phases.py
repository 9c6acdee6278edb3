"""Per-phase step-time breakdown."""

import pytest

from repro.core.results import RunResult, StepRecord
from repro.parallel.instrumentation import StepTiming
from repro.reporting import phase_breakdown, phase_shares
from repro.theory.concentration import ConcentrationState

CONCENTRATION = ConcentrationState(
    n_cells=8, empty_cells=0, c0_ratio=0.0, n=1.0, max_domain_cells=4
)


def result_of(*timings: StepTiming) -> RunResult:
    result = RunResult(dlb_enabled=True)
    for timing in timings:
        result.append(StepRecord(step=timing.step, timing=timing,
                                 concentration=CONCENTRATION, n_moves=0))
    return result


def make_result() -> RunResult:
    return result_of(*(
        StepTiming(step=step, tt=1.0, fmax=0.6, fave=0.5, fmin=0.4,
                   comm_max=0.2, dlb_time=0.1)
        for step in range(4)
    ))


class TestPhaseShares:
    def test_shares_sum_to_total(self):
        shares = phase_shares(make_result())
        assert shares["force"] == pytest.approx(0.6)
        assert shares["halo-comm"] == pytest.approx(0.2)
        assert shares["dlb"] == pytest.approx(0.1)
        assert shares["other"] == pytest.approx(0.1)
        assert shares["total"] == pytest.approx(1.0)

    def test_other_clamped_non_negative(self):
        # pathological record where components exceed Tt: other must not go < 0
        result = result_of(StepTiming(step=0, tt=0.5, fmax=0.6, fave=0.5, fmin=0.4,
                                      comm_max=0.2, dlb_time=0.1))
        assert phase_shares(result)["other"] == 0.0


class TestPhaseBreakdown:
    def test_table_contains_all_phases(self):
        table = phase_breakdown(make_result())
        for phase in ("force", "halo-comm", "dlb", "other", "total (Tt)"):
            assert phase in table
        assert "60.0%" in table

    def test_custom_title(self):
        assert "my title" in phase_breakdown(make_result(), title="my title")

