"""Boundary-point detection."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.theory.boundary import (
    BASELINE_FRACTION,
    FACTOR,
    SUSTAIN,
    WINDOW,
    BoundaryPoint,
    boundary_point,
    detect_divergence_step,
    moving_average,
)
from repro.theory.trajectory import Trajectory


def synthetic_spread(n_flat: int, n_rise: int, noise: float = 0.0, seed: int = 0):
    """Flat baseline then linear rise, with optional noise."""
    rng = np.random.default_rng(seed)
    flat = np.full(n_flat, 1.0)
    rise = 1.0 + np.arange(1, n_rise + 1) * 0.5
    series = np.concatenate([flat, rise])
    if noise:
        series = series + rng.normal(0, noise, len(series))
    return series


class TestMovingAverage:
    def test_window_one_is_identity(self):
        x = np.array([1.0, 5.0, 2.0])
        assert np.allclose(moving_average(x, 1), x)

    def test_preserves_length(self):
        x = np.arange(20.0)
        assert len(moving_average(x, 5)) == 20

    def test_smooths_constant_exactly(self):
        x = np.full(30, 3.0)
        assert np.allclose(moving_average(x, 7), 3.0)

    def test_rejects_bad_window(self):
        with pytest.raises(AnalysisError):
            moving_average(np.arange(5.0), 0)


class TestDetectDivergence:
    def test_clean_divergence_found_near_rise(self):
        series = synthetic_spread(100, 60)
        step = detect_divergence_step(series)
        assert 95 <= step <= 120

    def test_noisy_divergence_found(self):
        series = synthetic_spread(100, 60, noise=0.2)
        step = detect_divergence_step(series)
        assert 90 <= step <= 130

    def test_flat_series_raises(self):
        with pytest.raises(AnalysisError):
            detect_divergence_step(np.full(200, 1.0))

    def test_noise_only_series_raises(self):
        rng = np.random.default_rng(3)
        series = 1.0 + rng.normal(0, 0.05, 200)
        with pytest.raises(AnalysisError):
            detect_divergence_step(series)

    def test_short_series_raises(self):
        with pytest.raises(AnalysisError):
            detect_divergence_step(np.array([1.0, 2.0]))
        # A rise from the first record on, one record short of SUSTAIN + 1.
        with pytest.raises(AnalysisError, match="too short"):
            detect_divergence_step(np.arange(1.0, SUSTAIN + 1.0) ** 3)

    def test_transient_spike_not_flagged(self):
        series = np.full(200, 1.0)
        series[80:84] = 10.0  # short spike: above threshold for < SUSTAIN records
        with pytest.raises(AnalysisError):
            detect_divergence_step(series)

    def test_steps_labels_are_used(self):
        series = synthetic_spread(100, 60)
        steps = np.arange(len(series)) * 10
        step = detect_divergence_step(series, steps=steps)
        assert step % 10 == 0
        assert 900 <= step <= 1300

    def test_rejects_bad_baseline_fraction(self):
        # The detector has one setting: no call can pick another baseline.
        assert (WINDOW, BASELINE_FRACTION, FACTOR, SUSTAIN) == (11, 0.2, 2.5, 15)
        for knob in ("window", "baseline_fraction", "factor", "sustain"):
            with pytest.raises(TypeError):
                detect_divergence_step(synthetic_spread(50, 50), **{knob: 1.5})

    def test_sensitivity_to_factor(self):
        # A plateau just under FACTOR x the baseline never diverges; one just
        # over it diverges where it begins.
        below, above = np.full(200, 1.0), np.full(200, 1.0)
        below[100:] = 0.95 * FACTOR
        above[100:] = 1.05 * FACTOR
        with pytest.raises(AnalysisError):
            detect_divergence_step(below)
        assert 95 <= detect_divergence_step(above) <= 105


class TestDetectDivergenceEdgeCases:
    """Series shapes the campaign engine must classify as "never diverged"."""

    def test_decreasing_series_never_diverges(self):
        # DLB better than the start for the whole sweep: no boundary.
        series = np.linspace(5.0, 1.0, 200)
        with pytest.raises(AnalysisError):
            detect_divergence_step(series)

    def test_rise_shorter_than_sustain_window_not_flagged(self):
        # The exceedance must be *sustained*; a rise that starts but has
        # fewer than SUSTAIN samples left in the series cannot qualify.
        series = np.full(120, 1.0)
        series[-6:] = 50.0  # smoothed, only 11 records lie above threshold
        with pytest.raises(AnalysisError):
            detect_divergence_step(series)

    def test_transient_bump_that_dips_back_below_baseline(self):
        # The spread exceeds the threshold for a while but recovers to the
        # baseline -- DLB caught up, so this is not a divergence.
        series = np.full(300, 1.0)
        series[100:108] = 8.0   # above threshold for 14 smoothed records ...
        series[108:] = 1.0      # ... but the spread settles back down
        with pytest.raises(AnalysisError):
            detect_divergence_step(series)

    def test_bump_then_true_divergence_is_found_after_the_bump(self):
        # Same transient bump, but a genuine sustained rise later on: the
        # detector must skip the bump and report the real divergence.
        series = np.full(300, 1.0)
        series[100:108] = 8.0
        series[200:] = 1.0 + np.arange(100) * 0.5
        step = detect_divergence_step(series)
        assert step >= 200

    def test_whole_series_at_threshold_is_not_a_boundary(self):
        # Constant series: the baseline equals the signal, no increase ever
        # "begins", so no boundary exists even though nothing is below it.
        series = np.full(150, 2.0)
        with pytest.raises(AnalysisError):
            detect_divergence_step(series)


class TestBoundaryPoint:
    def test_reads_trajectory_at_detected_step(self):
        series = synthetic_spread(100, 60)
        n_records = len(series)
        trajectory = Trajectory(
            steps=np.arange(n_records),
            n=np.linspace(1.0, 3.0, n_records),
            c0_ratio=np.linspace(0.0, 0.8, n_records),
        )
        point = boundary_point(series, trajectory)
        assert isinstance(point, BoundaryPoint)
        assert 1.0 <= point.n <= 3.0
        assert 0.0 <= point.c0_ratio <= 0.8
        # The point must correspond to the detected step's trajectory entry.
        idx = point.step
        assert point.n == pytest.approx(trajectory.n[idx])
