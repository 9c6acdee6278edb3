"""Imbalance analytics over ``step`` records: ratio/efficiency, stragglers,
benefit, and their export through the event-log collector."""

import numpy as np
import pytest

from repro.obs import EventLog, MetricsRegistry, collect_events, imbalance_summary


def fields(totals, counterfactual=None):
    """A ``step`` record's fields whose per-PE totals are ``totals``."""
    zeros = [0.0] * len(totals)
    out = {"start": 0.0, "dlb": 0.0, "force": list(totals), "comm": zeros,
           "other": zeros}
    if counterfactual is not None:
        out["counterfactual"] = counterfactual
    return out


def per_step_reference(records, n_pes):
    """The summary accumulated one step at a time, in plain Python."""
    steps = sum_ratio = sum_efficiency = actual = cf_sum = benefit = 0.0
    cf_steps, stragglers = 0, [0] * n_pes
    worst_ratio, worst_step = 0.0, -1
    for record in records:
        totals = (np.array(record["force"]) + np.array(record["comm"])
                  + np.array(record["other"]) + record["dlb"])
        mean, peak = float(totals.mean()), float(totals.max())
        ratio = peak / mean if mean > 0 else 1.0
        steps += 1
        sum_ratio += ratio
        sum_efficiency += mean / peak if peak > 0 else 1.0
        actual += peak
        stragglers[int(np.argmax(totals))] += 1
        if ratio > worst_ratio:
            worst_ratio, worst_step = ratio, record["step"]
        if "counterfactual" in record:
            cf_steps += 1
            cf_sum += record["counterfactual"]
            benefit += record["counterfactual"] - peak
    return {
        "steps": int(steps), "mean_ratio": sum_ratio / steps,
        "mean_efficiency": sum_efficiency / steps, "worst_ratio": worst_ratio,
        "worst_step": worst_step, "actual_seconds": actual,
        "counterfactual_seconds": cf_sum if cf_steps else None,
        "dlb_benefit_seconds": benefit if cf_steps else None,
        "top_straggler": int(np.argmax(stragglers)), "straggler_counts": stragglers,
    }


def step(index, totals, counterfactual=None):
    """A ``step`` record whose per-PE totals are ``totals`` (all force)."""
    return {"kind": "step", "step": index, **fields(totals, counterfactual)}


class TestImbalanceTracker:
    """The summary the runner embeds in ``run.end`` and ``meta``."""

    def test_single_step_ratio_and_efficiency(self):
        summary = imbalance_summary([step(0, [1.0, 1.0, 1.0, 2.0])], 4)
        # mean = 1.25, peak = 2.0
        assert summary["mean_ratio"] == pytest.approx(2.0 / 1.25)
        assert summary["mean_efficiency"] == pytest.approx(1.25 / 2.0)
        assert summary["top_straggler"] == 3
        assert summary["worst_step"] == 0
        assert summary["actual_seconds"] == pytest.approx(2.0)

    def test_worst_step_tracks_the_peak_ratio(self):
        summary = imbalance_summary(
            [step(0, [1.0, 1.1]), step(1, [1.0, 3.0]), step(2, [1.0, 1.2])], 2
        )
        assert summary["worst_step"] == 1
        assert summary["worst_ratio"] == pytest.approx(3.0 / 2.0)

    def test_counterfactual_benefit_accumulates(self):
        summary = imbalance_summary(
            [step(0, [1.0, 1.0], counterfactual=1.5),
             step(1, [1.0, 1.0], counterfactual=1.2)], 2
        )
        assert summary["dlb_benefit_seconds"] == pytest.approx(0.7)
        assert summary["counterfactual_seconds"] == pytest.approx(2.7)
        assert summary["actual_seconds"] == pytest.approx(2.0)

    def test_summary_without_counterfactual_reports_none(self):
        summary = imbalance_summary([step(0, [1.0, 2.0])], 2)
        assert summary["counterfactual_seconds"] is None
        assert summary["dlb_benefit_seconds"] is None

    def test_empty_tracker_defaults(self):
        summary = imbalance_summary([{"kind": "run.start", "step": 0}], 3)
        assert summary["steps"] == 0
        assert summary["mean_ratio"] == 1.0
        assert summary["mean_efficiency"] == 1.0
        assert summary["top_straggler"] is None
        assert summary["straggler_counts"] == [0, 0, 0]

    def test_state_dict_round_trip(self):
        """The records ride in the checkpoint: a restored log summarises to
        the same numbers, and keeps extending seamlessly."""
        log = EventLog()
        log.emit(0, "step", **fields([1.0, 2.0, 3.0], 3.5))
        log.emit(1, "step", **fields([2.0, 1.0, 1.0]))
        fresh = EventLog()
        fresh.load_state_dict(log.state_dict())
        assert imbalance_summary(fresh.records, 3) == imbalance_summary(log.records, 3)
        fresh.emit(2, "step", **fields([1.0, 1.0, 1.0]))
        assert imbalance_summary(fresh.records, 3)["steps"] == 3

    @pytest.mark.parametrize("n_pes", [2, 9, 36])
    def test_matches_the_per_step_reference(self, n_pes):
        """The array form equals a step-by-step accumulation bit for bit
        (idle steps, DDM and DLB steps mixed)."""
        rng = np.random.default_rng(n_pes)
        records = []
        for index in range(200):
            def phase():
                return (rng.gamma(2.0, 1e-3, n_pes) * (index % 7 != 3)).tolist()
            record = {"kind": "step", "step": index + 1, "start": 0.0,
                      "dlb": float(rng.choice([0.0, 3e-5])), "force": phase(),
                      "comm": phase(), "other": phase()}
            if index % 3:
                record["counterfactual"] = float(rng.uniform(0.0, 0.02))
            records.append(record)
        assert imbalance_summary(records, n_pes) == per_step_reference(records, n_pes)


class TestCollectImbalance:
    def log(self):
        log = EventLog()
        log.emit(0, "run.start", mode="dlb", n_pes=2, dlb={"balancer": "permanent"})
        for index, totals in enumerate(([1.0, 2.0], [2.0, 1.0])):
            log.emit(index, "step", **fields(totals, counterfactual=2.5))
        return log

    def test_exports_gauges_and_straggler_counter(self):
        registry = MetricsRegistry()
        collect_events(registry, self.log())
        text = registry.to_prometheus_text()
        assert "repro_imbalance_ratio_mean" in text
        assert "repro_imbalance_efficiency_mean" in text
        assert "repro_imbalance_ratio_worst" in text
        assert "repro_dlb_benefit_seconds" in text
        assert 'repro_steps_total{balancer="permanent",mode="dlb"} 2' in text
        assert 'repro_straggler_steps_total{balancer="permanent",mode="dlb",pe="0"} 1' in text
        assert 'repro_straggler_steps_total{balancer="permanent",mode="dlb",pe="1"} 1' in text

    def test_recollection_never_double_counts(self):
        registry = MetricsRegistry()
        log = self.log()
        collect_events(registry, log)
        collect_events(registry, log)
        text = registry.to_prometheus_text()
        assert 'repro_straggler_steps_total{balancer="permanent",mode="dlb",pe="0"} 1' in text
        assert 'repro_steps_total{balancer="permanent",mode="dlb"} 2' in text

    def test_empty_tracker_exports_nothing(self):
        registry = MetricsRegistry()
        log = EventLog()
        log.emit(0, "run.start", mode="dlb", n_pes=2, dlb={"balancer": "permanent"})
        collect_events(registry, log)
        collect_events(registry, EventLog())  # no run.start at all
        assert len(registry) == 0
