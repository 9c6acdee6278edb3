"""Per-phase step-time breakdown."""

import pytest

from repro.parallel.instrumentation import StepTiming, TimingLog
from repro.reporting import phase_breakdown, phase_shares


def make_log() -> TimingLog:
    log = TimingLog()
    for step in range(4):
        log.append(
            StepTiming(step=step, tt=1.0, fmax=0.6, fave=0.5, fmin=0.4,
                       comm_max=0.2, dlb_time=0.1)
        )
    return log


class TestPhaseShares:
    def test_shares_sum_to_total(self):
        shares = phase_shares(make_log())
        assert shares["force"] == pytest.approx(0.6)
        assert shares["halo-comm"] == pytest.approx(0.2)
        assert shares["dlb"] == pytest.approx(0.1)
        assert shares["other"] == pytest.approx(0.1)
        assert shares["total"] == pytest.approx(1.0)

    def test_other_clamped_non_negative(self):
        log = TimingLog()
        # pathological record where components exceed Tt: other must not go < 0
        log.append(StepTiming(step=0, tt=0.5, fmax=0.6, fave=0.5, fmin=0.4,
                              comm_max=0.2, dlb_time=0.1))
        assert phase_shares(log)["other"] == 0.0


class TestPhaseBreakdown:
    def test_table_contains_all_phases(self):
        table = phase_breakdown(make_log())
        for phase in ("force", "halo-comm", "dlb", "other", "total (Tt)"):
            assert phase in table
        assert "60.0%" in table

    def test_custom_title(self):
        assert "my title" in phase_breakdown(make_log(), title="my title")

