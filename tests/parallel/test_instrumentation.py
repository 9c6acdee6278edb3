"""Timing instrumentation."""

import numpy as np
import pytest

from repro.parallel.instrumentation import StepComponents, StepTiming


class TestStepTiming:
    def test_from_components(self):
        force = np.array([1.0, 2.0, 3.0])
        comm = np.array([0.1, 0.1, 0.1])
        other = np.array([0.2, 0.2, 0.2])
        timing = StepTiming.from_components(5, force, comm, other, dlb_time=0.05)
        assert timing.step == 5
        assert timing.fmax == 3.0
        assert timing.fmin == 1.0
        assert timing.fave == pytest.approx(2.0)
        assert timing.tt == pytest.approx(3.0 + 0.1 + 0.2 + 0.05)
        assert timing.spread == pytest.approx(2.0)

    def test_from_components_records_comm_and_dlb(self):
        force = np.array([1.0, 1.0])
        comm = np.array([0.3, 0.7])
        other = np.zeros(2)
        timing = StepTiming.from_components(0, force, comm, other, dlb_time=0.2)
        assert timing.comm_max == pytest.approx(0.7)
        assert timing.dlb_time == pytest.approx(0.2)
        assert timing.tt == pytest.approx(1.0 + 0.7 + 0.2)

    def test_tt_tracks_slowest_pe(self):
        # Barrier semantics: one slow PE sets the step time.
        force = np.array([1.0, 1.0, 10.0])
        timing = StepTiming.from_components(0, force, np.zeros(3), np.zeros(3))
        assert timing.tt == 10.0


class TestStepComponents:
    def test_n_pes(self):
        components = StepComponents(
            force_times=np.ones(4),
            comm_times=np.zeros(4),
            other_times=np.zeros(4),
            dlb_time=0.1,
        )
        assert components.n_pes == 4
        assert components.dlb_time == 0.1
